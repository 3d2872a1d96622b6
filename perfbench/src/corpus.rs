//! Seeded inputs. Seed 0 is the committed corpora; any other seed
//! re-draws them through the public `GenericAppSpec` fields.
//!
//! A re-draw permutes each corpus's size tuples (view count,
//! complexity, base memory, activity heap) among its apps and then
//! shuffles the app order. Every app keeps its name, issue and state
//! mechanism, so the study's issue counts and the lint verdict classes
//! hold for every seed, while the corpus-wide sums of the sizes stay
//! fixed, so runs on different seeds measure the same amount of work.

use droidsim_kernel::Xoshiro256;
use rch_workloads::GenericAppSpec;

/// Re-draws `specs` with `rng`: permutes the size tuples among the
/// apps, then shuffles the app order.
fn redraw(mut specs: Vec<GenericAppSpec>, rng: &mut Xoshiro256) -> Vec<GenericAppSpec> {
    let mut sizes: Vec<(usize, f64, u64, u64)> = specs
        .iter()
        .map(|s| {
            (
                s.view_count,
                s.complexity,
                s.base_memory_bytes,
                s.activity_heap_bytes,
            )
        })
        .collect();
    rng.shuffle(&mut sizes);
    for (spec, (views, complexity, base, heap)) in specs.iter_mut().zip(sizes) {
        spec.view_count = views;
        spec.complexity = complexity;
        spec.base_memory_bytes = base;
        spec.activity_heap_bytes = heap;
    }
    rng.shuffle(&mut specs);
    specs
}

/// The top-100 study corpus for `seed`.
pub fn study(seed: u64) -> Vec<GenericAppSpec> {
    let specs = rch_workloads::top100_specs();
    if seed == 0 {
        return specs;
    }
    redraw(specs, &mut Xoshiro256::stream(seed, 0))
}

/// The 647-app lint corpus for `seed`: tp27, top100 and dataloss in
/// that order. A re-draw permutes sizes within each corpus (their size
/// ranges differ), then shuffles the whole list.
pub fn lint(seed: u64) -> Vec<GenericAppSpec> {
    let corpora = [
        rch_workloads::tp27_specs(),
        rch_workloads::top100_specs(),
        rch_workloads::dataloss_specs(),
    ];
    if seed == 0 {
        return corpora.concat();
    }
    let mut rng = Xoshiro256::stream(seed, 1);
    let mut specs: Vec<GenericAppSpec> = corpora
        .into_iter()
        .flat_map(|c| redraw(c, &mut rng))
        .collect();
    rng.shuffle(&mut specs);
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_committed_corpus() {
        assert_eq!(study(0), rch_workloads::top100_specs());
        assert_eq!(lint(0).len(), 647);
    }

    #[test]
    fn a_redraw_keeps_mechanisms_and_total_size() {
        let base = rch_workloads::top100_specs();
        let drawn = study(7);
        assert_ne!(drawn, base);
        assert_eq!(drawn, study(7), "same seed, same inputs");
        let views = |s: &[GenericAppSpec]| s.iter().map(|a| a.view_count).sum::<usize>();
        assert_eq!(views(&drawn), views(&base));
        for spec in &drawn {
            let orig = base.iter().find(|b| b.name == spec.name).unwrap();
            assert_eq!(spec.issue, orig.issue);
            assert_eq!(spec.state_items, orig.state_items);
        }
    }
}
