//! Layout inflation: template + resources + configuration → view tree.
//!
//! Two entry points share one walker: [`inflate`] is lenient (a child
//! declared under a non-container view is skipped, mirroring the
//! fallback-layout leniency elsewhere in the simulator), while
//! [`try_inflate`] is strict and surfaces the malformed template as
//! [`ViewError::NotAContainer`] — which is what the static analyzer
//! reports instead of silently analysing a truncated tree.

use crate::error::ViewError;
use crate::kind::ViewKind;
use crate::tree::{ViewId, ViewTree};
use droidsim_config::Configuration;
use droidsim_resources::{LayoutNode, LayoutTemplate, ResourceTable};

/// Statistics from one inflation, consumed by the cost model (per-view
/// inflate cost, drawable decode bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InflateStats {
    /// Views instantiated.
    pub views_created: usize,
    /// Total decoded drawable bytes loaded.
    pub drawable_bytes: u64,
    /// String resources resolved.
    pub strings_resolved: usize,
}

/// Inflates `template` into a fresh [`ViewTree`], resolving `@string/…`
/// and `@drawable/…` attribute references against `resources` for the
/// given `config`.
///
/// Unresolvable references fall back to the literal (Android raises at
/// build time; the simulator is lenient so workloads can be terse), and
/// a child declared under a non-container view is skipped along with its
/// subtree. Use [`try_inflate`] when a malformed template should be an
/// error instead.
///
/// # Examples
///
/// ```
/// use droidsim_config::Configuration;
/// use droidsim_resources::{LayoutNode, LayoutTemplate, ResourceTable};
/// use droidsim_view::inflate;
///
/// let template = LayoutTemplate::new(
///     "main",
///     LayoutNode::new("LinearLayout")
///         .with_id("root")
///         .with_child(LayoutNode::new("TextView").with_id("title").with_attr("text", "Hi")),
/// );
/// let (tree, stats) = inflate(&template, &ResourceTable::new(), &Configuration::phone_portrait());
/// assert_eq!(stats.views_created, 2);
/// assert!(tree.find_by_id_name("title").is_some());
/// ```
pub fn inflate(
    template: &LayoutTemplate,
    resources: &ResourceTable,
    config: &Configuration,
) -> (ViewTree, InflateStats) {
    let lenient = walk(template, resources, config, false);
    debug_assert!(lenient.is_ok(), "lenient inflation cannot fail");
    lenient.unwrap_or_default()
}

/// Strict form of [`inflate`]: a template that places children under a
/// non-container view is rejected as [`ViewError::NotAContainer`] rather
/// than silently truncated.
///
/// # Examples
///
/// ```
/// use droidsim_config::Configuration;
/// use droidsim_resources::{LayoutNode, LayoutTemplate, ResourceTable};
/// use droidsim_view::{try_inflate, ViewError};
///
/// let bad = LayoutTemplate::new(
///     "bad",
///     LayoutNode::new("TextView").with_child(LayoutNode::new("Button")),
/// );
/// let err = try_inflate(&bad, &ResourceTable::new(), &Configuration::phone_portrait());
/// assert!(matches!(err, Err(ViewError::NotAContainer { .. })));
/// ```
pub fn try_inflate(
    template: &LayoutTemplate,
    resources: &ResourceTable,
    config: &Configuration,
) -> Result<(ViewTree, InflateStats), ViewError> {
    walk(template, resources, config, true)
}

/// The walk both entry points share: a fresh tree under the decor view.
fn walk(
    template: &LayoutTemplate,
    resources: &ResourceTable,
    config: &Configuration,
    strict: bool,
) -> Result<(ViewTree, InflateStats), ViewError> {
    let mut tree = ViewTree::new();
    let mut stats = InflateStats::default();
    inflate_node(
        template.root(),
        tree.root(),
        &mut tree,
        resources,
        config,
        &mut stats,
        strict,
    )?;
    Ok((tree, stats))
}

fn inflate_node(
    node: &LayoutNode,
    parent: ViewId,
    tree: &mut ViewTree,
    resources: &ResourceTable,
    config: &Configuration,
    stats: &mut InflateStats,
    strict: bool,
) -> Result<(), ViewError> {
    let kind = ViewKind::from_class_name(&node.class);
    let id = match tree.add_view(parent, kind, node.id_name.as_deref()) {
        Ok(id) => id,
        // The only failure `add_view` has: `parent` is not a container.
        Err(e) if strict => return Err(e),
        Err(_) => return Ok(()), // lenient: drop the subtree
    };
    stats.views_created += 1;

    for (key, value) in &node.attrs {
        match key.as_str() {
            "text" => {
                let resolved = resolve_string(value, resources, config, stats);
                if let Ok(v) = tree.view_mut(id) {
                    v.attrs.text = Some(resolved);
                }
            }
            "src" => {
                let (asset, bytes) = resolve_drawable(value, resources, config);
                stats.drawable_bytes += bytes;
                if let Ok(v) = tree.view_mut(id) {
                    v.attrs.drawable = Some((asset, bytes));
                }
            }
            "progress" => {
                if let (Ok(p), Ok(v)) = (value.parse::<i32>(), tree.view_mut(id)) {
                    v.attrs.progress = Some(p);
                }
            }
            "videoUri" => {
                if let Ok(v) = tree.view_mut(id) {
                    v.attrs.video_uri = Some(value.clone());
                }
            }
            _ => {} // layout params etc. — no simulation effect
        }
    }

    for child in &node.children {
        inflate_node(child, id, tree, resources, config, stats, strict)?;
    }
    Ok(())
}

fn resolve_string(
    value: &str,
    resources: &ResourceTable,
    config: &Configuration,
    stats: &mut InflateStats,
) -> String {
    if let Some(name) = value.strip_prefix("@string/") {
        stats.strings_resolved += 1;
        resources
            .resolve_string(name, config)
            .unwrap_or(value)
            .to_owned()
    } else {
        value.to_owned()
    }
}

fn resolve_drawable(
    value: &str,
    resources: &ResourceTable,
    config: &Configuration,
) -> (String, u64) {
    if let Some(name) = value.strip_prefix("@drawable/") {
        match resources.resolve_drawable(name, config) {
            Ok((asset, bytes)) => (asset.to_owned(), bytes),
            Err(_) => (value.to_owned(), 0),
        }
    } else {
        (value.to_owned(), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use droidsim_config::{Locale, Orientation};
    use droidsim_resources::{Qualifiers, ResourceValue};

    fn resources() -> ResourceTable {
        let mut t = ResourceTable::new();
        t.put("title", Qualifiers::any(), ResourceValue::string("Hello"));
        t.put(
            "title",
            Qualifiers::any().with_language("zh"),
            ResourceValue::string("你好"),
        );
        t.put(
            "hero",
            Qualifiers::any(),
            ResourceValue::drawable("hero_port.png", 1_000),
        );
        t.put(
            "hero",
            Qualifiers::any().with_orientation(Orientation::Landscape),
            ResourceValue::drawable("hero_land.png", 2_000),
        );
        t
    }

    fn template() -> LayoutTemplate {
        LayoutTemplate::new(
            "main",
            LayoutNode::new("LinearLayout")
                .with_id("root")
                .with_children([
                    LayoutNode::new("TextView")
                        .with_id("title")
                        .with_attr("text", "@string/title"),
                    LayoutNode::new("ImageView")
                        .with_id("hero")
                        .with_attr("src", "@drawable/hero"),
                    LayoutNode::new("ProgressBar")
                        .with_id("bar")
                        .with_attr("progress", "30"),
                ]),
        )
    }

    #[test]
    fn inflation_builds_the_tree() {
        let (tree, stats) = inflate(&template(), &resources(), &Configuration::phone_portrait());
        assert_eq!(stats.views_created, 4);
        assert_eq!(tree.view_count(), 5); // + decor
        assert_eq!(stats.strings_resolved, 1);
    }

    #[test]
    fn string_resolution_follows_locale() {
        let config = Configuration::phone_portrait().with_locale(Locale::zh_cn());
        let (tree, _) = inflate(&template(), &resources(), &config);
        let title = tree.find_by_id_name("title").unwrap();
        assert_eq!(
            tree.view(title).unwrap().attrs.text.as_deref(),
            Some("你好")
        );
    }

    #[test]
    fn drawable_resolution_follows_orientation() {
        let (port, sp) = inflate(&template(), &resources(), &Configuration::phone_portrait());
        let (land, sl) = inflate(&template(), &resources(), &Configuration::phone_landscape());
        let hero_p = port.find_by_id_name("hero").unwrap();
        let hero_l = land.find_by_id_name("hero").unwrap();
        assert_eq!(
            port.view(hero_p)
                .unwrap()
                .attrs
                .drawable
                .as_ref()
                .unwrap()
                .0,
            "hero_port.png"
        );
        assert_eq!(
            land.view(hero_l)
                .unwrap()
                .attrs
                .drawable
                .as_ref()
                .unwrap()
                .0,
            "hero_land.png"
        );
        assert_eq!(sp.drawable_bytes, 1_000);
        assert_eq!(sl.drawable_bytes, 2_000);
    }

    #[test]
    fn literal_attributes_pass_through() {
        let t = LayoutTemplate::new(
            "lit",
            LayoutNode::new("LinearLayout")
                .with_child(LayoutNode::new("TextView").with_attr("text", "literal")),
        );
        let (tree, stats) = inflate(&t, &ResourceTable::new(), &Configuration::phone_portrait());
        let ids = tree.iter_ids();
        let text_view = ids.last().copied().unwrap();
        assert_eq!(
            tree.view(text_view).unwrap().attrs.text.as_deref(),
            Some("literal")
        );
        assert_eq!(stats.strings_resolved, 0);
    }

    #[test]
    fn missing_resource_falls_back_to_literal() {
        let t = LayoutTemplate::new(
            "miss",
            LayoutNode::new("FrameLayout")
                .with_child(LayoutNode::new("TextView").with_attr("text", "@string/nope")),
        );
        let (tree, _) = inflate(&t, &ResourceTable::new(), &Configuration::phone_portrait());
        let leaf = *tree.iter_ids().last().unwrap();
        assert_eq!(
            tree.view(leaf).unwrap().attrs.text.as_deref(),
            Some("@string/nope")
        );
    }

    #[test]
    fn lenient_inflation_skips_children_of_leaf_views() {
        let t = LayoutTemplate::new(
            "bad",
            LayoutNode::new("LinearLayout").with_children([
                LayoutNode::new("TextView")
                    .with_id("leaf")
                    .with_child(LayoutNode::new("Button").with_id("orphan")),
                LayoutNode::new("TextView").with_id("after"),
            ]),
        );
        let (tree, stats) = inflate(&t, &ResourceTable::new(), &Configuration::phone_portrait());
        assert!(tree.find_by_id_name("leaf").is_some());
        assert!(tree.find_by_id_name("after").is_some(), "siblings survive");
        assert!(tree.find_by_id_name("orphan").is_none(), "subtree dropped");
        assert_eq!(stats.views_created, 3);
    }

    #[test]
    fn strict_inflation_rejects_children_of_leaf_views() {
        let t = LayoutTemplate::new(
            "bad",
            LayoutNode::new("TextView").with_child(LayoutNode::new("Button")),
        );
        let err = try_inflate(&t, &ResourceTable::new(), &Configuration::phone_portrait());
        assert!(matches!(err, Err(ViewError::NotAContainer { .. })));
    }

    #[test]
    fn strict_inflation_matches_lenient_on_well_formed_templates() {
        let (lenient, ls) = inflate(&template(), &resources(), &Configuration::phone_portrait());
        let (strict, ss) = try_inflate(&template(), &resources(), &Configuration::phone_portrait())
            .expect("well-formed");
        assert_eq!(ls, ss);
        assert_eq!(lenient.view_count(), strict.view_count());
    }

    #[test]
    fn progress_attr_parses() {
        let (tree, _) = inflate(&template(), &resources(), &Configuration::phone_portrait());
        let bar = tree.find_by_id_name("bar").unwrap();
        assert_eq!(tree.view(bar).unwrap().attrs.progress, Some(30));
    }
}
