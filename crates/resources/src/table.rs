//! The resource table: named, qualified resources with Android-style
//! best-match resolution.

use crate::layout::LayoutTemplate;
use crate::qualifiers::Qualifiers;
use core::fmt;
use droidsim_config::Configuration;
use droidsim_kernel::memo::{self, Admission, MemoCache};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Once, OnceLock};

/// A resolved resource id (stable per `(table, name)` pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ResId(pub u32);

impl fmt::Display for ResId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x7f{:06x}", self.0)
    }
}

/// A resource payload.
#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
pub enum ResourceValue {
    /// A string resource.
    String(String),
    /// A drawable, identified by name; `bytes_hint` models the decoded
    /// bitmap footprint for the memory model.
    Drawable {
        /// Asset name.
        name: String,
        /// Decoded size in bytes (memory-model input).
        bytes_hint: u64,
    },
    /// A layout template.
    Layout(LayoutTemplate),
    /// An integer (dimensions, counts).
    Integer(i64),
}

impl ResourceValue {
    /// Convenience constructor for a string resource.
    pub fn string(s: &str) -> Self {
        ResourceValue::String(s.to_owned())
    }

    /// Convenience constructor for a drawable resource.
    pub fn drawable(name: &str, bytes_hint: u64) -> Self {
        ResourceValue::Drawable {
            name: name.to_owned(),
            bytes_hint,
        }
    }
}

/// Errors from resource resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResourceError {
    /// No resource with this name exists at all.
    UnknownName(String),
    /// The name exists but no variant matches the configuration and there
    /// is no default variant.
    NoMatchingVariant(String),
    /// The resource resolved but has a different payload type.
    WrongType {
        /// Requested resource name.
        name: String,
        /// What the caller asked for.
        expected: &'static str,
    },
}

impl fmt::Display for ResourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceError::UnknownName(name) => write!(f, "unknown resource `{name}`"),
            ResourceError::NoMatchingVariant(name) => {
                write!(f, "no variant of `{name}` matches the configuration")
            }
            ResourceError::WrongType { name, expected } => {
                write!(f, "resource `{name}` is not a {expected}")
            }
        }
    }
}

impl std::error::Error for ResourceError {}

#[derive(Debug, Clone, PartialEq, Hash, Serialize, Deserialize)]
struct Entry {
    qualifiers: Qualifiers,
    value: ResourceValue,
}

/// Cached content fingerprint of a [`ResourceTable`], computed lazily on
/// first use and invalidated (reset to the `0` sentinel) by every
/// [`ResourceTable::put`]. Lives in an `AtomicU64` so resolution — a
/// `&self` path — can fill it in; racing fills compute the same value.
///
/// Deliberately invisible to equality and serialization: the fingerprint
/// is derived purely from `entries`, so two tables that compare equal
/// always fingerprint equal once computed.
struct TableFingerprint(AtomicU64);

impl TableFingerprint {
    fn dirty() -> Self {
        TableFingerprint(AtomicU64::new(0))
    }

    fn invalidate(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl Clone for TableFingerprint {
    fn clone(&self) -> Self {
        TableFingerprint(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

impl Default for TableFingerprint {
    fn default() -> Self {
        TableFingerprint::dirty()
    }
}

impl PartialEq for TableFingerprint {
    /// Always equal: the fingerprint is a cache over `entries`, never
    /// independent state, so it must not influence table equality.
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl fmt::Debug for TableFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TableFingerprint({:#x})", self.0.load(Ordering::Relaxed))
    }
}

/// The process-wide resolved-view cache: `(table fingerprint, config
/// digest)` → name → index of the best-matching variant. Entries are
/// content-addressed, so any table mutation changes the key instead of
/// hitting stale data.
fn resolved_view_cache() -> &'static MemoCache<(u64, u64), HashMap<String, u32>> {
    static CACHE: OnceLock<MemoCache<(u64, u64), HashMap<String, u32>>> = OnceLock::new();
    static REGISTER: Once = Once::new();
    let cache = CACHE.get_or_init(|| {
        MemoCache::new("resolve", 512, |view: &HashMap<String, u32>| {
            view.keys().map(|k| k.len() as u64 + 48).sum()
        })
    });
    REGISTER.call_once(|| memo::register(cache));
    cache
}

/// A named, qualified resource store.
///
/// # Examples
///
/// ```
/// use droidsim_config::{Configuration, Orientation};
/// use droidsim_resources::{LayoutNode, LayoutTemplate, Qualifiers, ResourceTable, ResourceValue};
///
/// let mut table = ResourceTable::new();
/// let port = LayoutTemplate::new("main", LayoutNode::new("LinearLayout"));
/// let land = LayoutTemplate::new("main", LayoutNode::new("FrameLayout"));
/// table.put("main", Qualifiers::any(), ResourceValue::Layout(port));
/// table.put(
///     "main",
///     Qualifiers::any().with_orientation(Orientation::Landscape),
///     ResourceValue::Layout(land),
/// );
/// let layout = table
///     .resolve_layout("main", &Configuration::phone_landscape())
///     .expect("landscape variant");
/// assert_eq!(layout.root().class, "FrameLayout");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceTable {
    /// Name → variants, each variant list kept sorted by *descending*
    /// qualifier specificity so resolution takes the first match.
    entries: BTreeMap<String, Vec<Entry>>,
    /// Lazily-computed content fingerprint (see [`TableFingerprint`]);
    /// skipped on the wire and recomputed on demand after deserialization.
    #[serde(skip)]
    fingerprint: TableFingerprint,
}

impl ResourceTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ResourceTable::default()
    }

    /// Adds a qualified variant of resource `name`. Adding the same
    /// qualifiers twice replaces the earlier payload (last write wins),
    /// matching `aapt`'s per-directory uniqueness.
    ///
    /// Variants are kept sorted by descending [`Qualifiers::specificity`]
    /// (insertion order among equal scores), so resolution is a
    /// first-match scan instead of a full best-match pass.
    pub fn put(&mut self, name: &str, qualifiers: Qualifiers, value: ResourceValue) {
        let variants = self.entries.entry(name.to_owned()).or_default();
        if let Some(existing) = variants.iter_mut().find(|e| e.qualifiers == qualifiers) {
            existing.value = value;
        } else {
            let specificity = qualifiers.specificity();
            let at = variants.partition_point(|e| e.qualifiers.specificity() >= specificity);
            variants.insert(at, Entry { qualifiers, value });
        }
        self.fingerprint.invalidate();
    }

    /// The table's content fingerprint: an FNV-1a fold over every
    /// `(name, qualifiers, value)` entry, computed lazily and cached
    /// until the next [`ResourceTable::put`]. Equal-content tables
    /// fingerprint equal, which is what keys the process-wide
    /// resolved-view and inflation caches. Never `0` (the dirty
    /// sentinel).
    pub fn fingerprint(&self) -> u64 {
        let cached = self.fingerprint.0.load(Ordering::Relaxed);
        if cached != 0 {
            return cached;
        }
        let mut fp = memo::FNV_OFFSET;
        for (name, variants) in &self.entries {
            fp = memo::fold_u64(fp, memo::stable_hash(name.as_str()));
            for entry in variants {
                fp = memo::fold_u64(fp, memo::stable_hash(entry));
            }
        }
        let fp = if fp == 0 { memo::FNV_PRIME } else { fp };
        self.fingerprint.0.store(fp, Ordering::Relaxed);
        fp
    }

    /// Builds the resolved view for `config`: every name mapped to the
    /// index of its best-matching variant (names with no match are
    /// absent). This is what the warm path shares across tasks.
    fn build_resolved_view(&self, config: &Configuration) -> HashMap<String, u32> {
        self.entries
            .iter()
            .filter_map(|(name, variants)| {
                variants
                    .iter()
                    .position(|e| e.qualifiers.matches(config))
                    .map(|i| (name.clone(), i as u32))
            })
            .collect()
    }

    /// The stable id for `name`, if the name exists.
    pub fn id_of(&self, name: &str) -> Option<ResId> {
        self.entries
            .keys()
            .position(|k| k == name)
            .map(|i| ResId(i as u32))
    }

    /// Resolves `name` against `config`, returning the best-matching
    /// variant per Android precedence rules.
    ///
    /// # Errors
    ///
    /// [`ResourceError::UnknownName`] if no such resource exists;
    /// [`ResourceError::NoMatchingVariant`] if variants exist but none
    /// matches and there is no default.
    pub fn resolve(
        &self,
        name: &str,
        config: &Configuration,
    ) -> Result<&ResourceValue, ResourceError> {
        let variants = self
            .entries
            .get(name)
            .ok_or_else(|| ResourceError::UnknownName(name.to_owned()))?;
        if memo::enabled() {
            let key = (self.fingerprint(), memo::stable_hash(config));
            match resolved_view_cache().probe(key) {
                Admission::Hit(view) => {
                    return Self::pick(variants, view.get(name).copied(), name);
                }
                Admission::Build => {
                    let view = self.build_resolved_view(config);
                    let idx = view.get(name).copied();
                    resolved_view_cache().publish(key, view);
                    return Self::pick(variants, idx, name);
                }
                Admission::Skip => {}
            }
        }
        // Cold path: variants are sorted by descending specificity, so
        // the first match is the best match.
        variants
            .iter()
            .find(|e| e.qualifiers.matches(config))
            .map(|e| &e.value)
            .ok_or_else(|| ResourceError::NoMatchingVariant(name.to_owned()))
    }

    /// Maps a cached variant index back into this table's entry list.
    /// `None` — or an index that outlives the variants it was computed
    /// against (impossible short of a fingerprint collision) — reports
    /// as no matching variant.
    fn pick<'t>(
        variants: &'t [Entry],
        idx: Option<u32>,
        name: &str,
    ) -> Result<&'t ResourceValue, ResourceError> {
        idx.and_then(|i| variants.get(i as usize))
            .map(|e| &e.value)
            .ok_or_else(|| ResourceError::NoMatchingVariant(name.to_owned()))
    }

    /// Resolves a string resource; `None` on any failure (lenient lookup
    /// used by inflaters that fall back to literals).
    pub fn resolve_string(&self, name: &str, config: &Configuration) -> Option<&str> {
        match self.resolve(name, config) {
            Ok(ResourceValue::String(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Resolves a layout resource.
    ///
    /// # Errors
    ///
    /// As [`ResourceTable::resolve`], plus [`ResourceError::WrongType`] if
    /// the resource is not a layout.
    pub fn resolve_layout(
        &self,
        name: &str,
        config: &Configuration,
    ) -> Result<&LayoutTemplate, ResourceError> {
        match self.resolve(name, config)? {
            ResourceValue::Layout(t) => Ok(t),
            _ => Err(ResourceError::WrongType {
                name: name.to_owned(),
                expected: "layout",
            }),
        }
    }

    /// Resolves a drawable resource, returning `(asset name, bytes hint)`.
    ///
    /// # Errors
    ///
    /// As [`ResourceTable::resolve`], plus [`ResourceError::WrongType`] if
    /// the resource is not a drawable.
    pub fn resolve_drawable(
        &self,
        name: &str,
        config: &Configuration,
    ) -> Result<(&str, u64), ResourceError> {
        match self.resolve(name, config)? {
            ResourceValue::Drawable {
                name: asset,
                bytes_hint,
            } => Ok((asset.as_str(), *bytes_hint)),
            _ => Err(ResourceError::WrongType {
                name: name.to_owned(),
                expected: "drawable",
            }),
        }
    }

    /// Fetches this configuration's resolved view once, for a run of
    /// lookups that all share `config` — the inflater resolves every
    /// attribute of a layout this way. A per-lookup
    /// [`resolve`](ResourceTable::resolve) pays the memo probe (config digest,
    /// shard lock, `Arc` traffic) on every call, which costs more than
    /// the sorted first-match scan it replaces; the handle pays it once
    /// and answers each lookup with a plain map read. With the memo
    /// layer disabled (or not yet admitted) every lookup runs the same
    /// cold scan `resolve` would.
    pub fn resolver<'a>(&'a self, config: &'a Configuration) -> ConfigResolver<'a> {
        let view = if memo::enabled() {
            let key = (self.fingerprint(), memo::stable_hash(config));
            match resolved_view_cache().probe(key) {
                Admission::Hit(view) => Some(view),
                Admission::Build => {
                    let view = self.build_resolved_view(config);
                    resolved_view_cache().publish(key, view.clone());
                    Some(Arc::new(view))
                }
                Admission::Skip => None,
            }
        } else {
            None
        };
        ConfigResolver {
            table: self,
            config,
            view,
        }
    }

    /// Number of distinct resource names.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over resource names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }
}

/// One configuration's view of a table, created by
/// [`ResourceTable::resolver`]: the memo probe is paid once at
/// construction, every lookup after that is a plain map read (or, when
/// the memo layer declined, the same sorted first-match scan the cold
/// path runs). Borrows the table, so the view can never go stale.
#[derive(Debug)]
pub struct ConfigResolver<'a> {
    table: &'a ResourceTable,
    config: &'a Configuration,
    /// The shared resolved view; `None` sends every lookup down the
    /// cold scan.
    view: Option<Arc<HashMap<String, u32>>>,
}

impl ConfigResolver<'_> {
    /// Resolves the best-matching variant of `name`, as
    /// [`ResourceTable::resolve`] would for this configuration.
    ///
    /// # Errors
    ///
    /// [`ResourceError::UnknownName`] / [`ResourceError::NoMatchingVariant`]
    /// exactly as the per-lookup path.
    pub fn resolve(&self, name: &str) -> Result<&ResourceValue, ResourceError> {
        let variants = self
            .table
            .entries
            .get(name)
            .ok_or_else(|| ResourceError::UnknownName(name.to_owned()))?;
        match &self.view {
            Some(view) => ResourceTable::pick(variants, view.get(name).copied(), name),
            None => variants
                .iter()
                .find(|e| e.qualifiers.matches(self.config))
                .map(|e| &e.value)
                .ok_or_else(|| ResourceError::NoMatchingVariant(name.to_owned())),
        }
    }

    /// Resolves a string resource; `None` on any failure (lenient lookup
    /// used by inflaters that fall back to literals).
    pub fn resolve_string(&self, name: &str) -> Option<&str> {
        match self.resolve(name) {
            Ok(ResourceValue::String(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Resolves a drawable resource, returning `(asset name, bytes hint)`.
    ///
    /// # Errors
    ///
    /// As [`ConfigResolver::resolve`], plus [`ResourceError::WrongType`]
    /// if the resource is not a drawable.
    pub fn resolve_drawable(&self, name: &str) -> Result<(&str, u64), ResourceError> {
        match self.resolve(name)? {
            ResourceValue::Drawable {
                name: asset,
                bytes_hint,
            } => Ok((asset.as_str(), *bytes_hint)),
            _ => Err(ResourceError::WrongType {
                name: name.to_owned(),
                expected: "drawable",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutNode;
    use droidsim_config::{Locale, Orientation, UiMode};

    fn table_with_variants() -> ResourceTable {
        let mut t = ResourceTable::new();
        t.put(
            "greeting",
            Qualifiers::any(),
            ResourceValue::string("Hello"),
        );
        t.put(
            "greeting",
            Qualifiers::any().with_language("zh"),
            ResourceValue::string("你好"),
        );
        t.put(
            "greeting",
            Qualifiers::any().with_orientation(Orientation::Landscape),
            ResourceValue::string("Hello (wide)"),
        );
        t
    }

    #[test]
    fn default_variant_matches_base_config() {
        let t = table_with_variants();
        let config = Configuration::phone_portrait();
        assert_eq!(t.resolve_string("greeting", &config), Some("Hello"));
    }

    #[test]
    fn locale_beats_orientation() {
        let t = table_with_variants();
        // Landscape AND Chinese: both qualified variants match; locale wins.
        let config = Configuration::phone_landscape().with_locale(Locale::zh_cn());
        assert_eq!(t.resolve_string("greeting", &config), Some("你好"));
    }

    #[test]
    fn orientation_variant_beats_default() {
        let t = table_with_variants();
        let config = Configuration::phone_landscape();
        assert_eq!(t.resolve_string("greeting", &config), Some("Hello (wide)"));
    }

    #[test]
    fn unknown_name_errors() {
        let t = table_with_variants();
        let err = t
            .resolve("nope", &Configuration::phone_portrait())
            .unwrap_err();
        assert_eq!(err, ResourceError::UnknownName("nope".to_owned()));
    }

    #[test]
    fn no_matching_variant_errors() {
        let mut t = ResourceTable::new();
        t.put(
            "night_only",
            Qualifiers::any().with_ui_mode(UiMode::Night),
            ResourceValue::string("dark"),
        );
        let err = t
            .resolve("night_only", &Configuration::phone_portrait())
            .unwrap_err();
        assert_eq!(
            err,
            ResourceError::NoMatchingVariant("night_only".to_owned())
        );
    }

    #[test]
    fn wrong_type_errors() {
        let t = table_with_variants();
        let err = t
            .resolve_layout("greeting", &Configuration::phone_portrait())
            .unwrap_err();
        assert!(matches!(err, ResourceError::WrongType { .. }));
        assert_eq!(err.to_string(), "resource `greeting` is not a layout");
    }

    #[test]
    fn same_qualifiers_replace() {
        let mut t = ResourceTable::new();
        t.put("x", Qualifiers::any(), ResourceValue::string("old"));
        t.put("x", Qualifiers::any(), ResourceValue::string("new"));
        let config = Configuration::phone_portrait();
        assert_eq!(t.resolve_string("x", &config), Some("new"));
    }

    #[test]
    fn layout_variant_selection() {
        let mut t = ResourceTable::new();
        t.put(
            "main",
            Qualifiers::any(),
            ResourceValue::Layout(LayoutTemplate::new("main", LayoutNode::new("LinearLayout"))),
        );
        t.put(
            "main",
            Qualifiers::any().with_orientation(Orientation::Landscape),
            ResourceValue::Layout(LayoutTemplate::new("main", LayoutNode::new("GridLayout"))),
        );
        let land = t
            .resolve_layout("main", &Configuration::phone_landscape())
            .unwrap();
        assert_eq!(land.root().class, "GridLayout");
        let port = t
            .resolve_layout("main", &Configuration::phone_portrait())
            .unwrap();
        assert_eq!(port.root().class, "LinearLayout");
    }

    #[test]
    fn ids_are_stable_and_dense() {
        let t = table_with_variants();
        assert_eq!(t.id_of("greeting"), Some(ResId(0)));
        assert_eq!(t.id_of("missing"), None);
        assert_eq!(ResId(7).to_string(), "0x7f000007");
    }

    #[test]
    fn fingerprint_tracks_content_not_identity() {
        let a = table_with_variants();
        let b = table_with_variants();
        assert_ne!(a.fingerprint(), 0, "never the dirty sentinel");
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal content");
        assert_eq!(a.clone().fingerprint(), a.fingerprint(), "clones agree");

        let mut c = table_with_variants();
        c.put("extra", Qualifiers::any(), ResourceValue::string("x"));
        assert_ne!(c.fingerprint(), a.fingerprint(), "content change re-keys");

        let mut d = table_with_variants();
        let before = d.fingerprint();
        d.put("greeting", Qualifiers::any(), ResourceValue::string("Hi"));
        assert_ne!(d.fingerprint(), before, "replacement re-keys");
    }

    #[test]
    fn variants_stay_sorted_by_descending_specificity() {
        // Insertion order shuffled relative to specificity; resolution
        // must still pick the most specific match first.
        let mut t = ResourceTable::new();
        t.put(
            "s",
            Qualifiers::any().with_ui_mode(UiMode::Night),
            ResourceValue::string("night"),
        );
        t.put("s", Qualifiers::any(), ResourceValue::string("default"));
        t.put(
            "s",
            Qualifiers::any().with_language("zh"),
            ResourceValue::string("zh"),
        );
        t.put(
            "s",
            Qualifiers::any().with_orientation(Orientation::Landscape),
            ResourceValue::string("land"),
        );
        let base = Configuration::phone_portrait();
        assert_eq!(t.resolve_string("s", &base), Some("default"));
        let zh_land_night = Configuration::phone_landscape()
            .with_locale(Locale::zh_cn())
            .with_ui_mode(UiMode::Night);
        assert_eq!(t.resolve_string("s", &zh_land_night), Some("zh"));
        let land = Configuration::phone_landscape();
        assert_eq!(t.resolve_string("s", &land), Some("land"));
    }

    #[test]
    fn memoized_resolution_matches_cold_path() {
        use droidsim_kernel::memo;

        let t = table_with_variants();
        let configs = [
            Configuration::phone_portrait(),
            Configuration::phone_landscape(),
            Configuration::phone_portrait().with_locale(Locale::zh_cn()),
            Configuration::phone_landscape().with_locale(Locale::zh_cn()),
        ];
        for config in &configs {
            // Drive the same lookup repeatedly so the key passes two-touch
            // admission and later iterations are genuine cache hits.
            let cold = {
                let was = memo::enabled();
                memo::set_enabled(false);
                let v = t.resolve("greeting", config).cloned();
                memo::set_enabled(was);
                v
            };
            for _ in 0..4 {
                assert_eq!(t.resolve("greeting", config).cloned(), cold);
            }
            assert_eq!(
                t.resolve("nope", config).unwrap_err(),
                ResourceError::UnknownName("nope".to_owned())
            );
        }
    }

    #[test]
    fn drawable_resolution() {
        let mut t = ResourceTable::new();
        t.put(
            "hero",
            Qualifiers::any(),
            ResourceValue::drawable("hero.png", 4096),
        );
        let (asset, bytes) = t
            .resolve_drawable("hero", &Configuration::phone_portrait())
            .unwrap();
        assert_eq!(asset, "hero.png");
        assert_eq!(bytes, 4096);
    }
}
