//! The resource table: named, qualified resources with Android-style
//! best-match resolution.

use crate::layout::LayoutTemplate;
use crate::qualifiers::Qualifiers;
use core::fmt;
use droidsim_config::Configuration;
use std::collections::BTreeMap;

/// A resolved resource id (stable per `(table, name)` pair).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResId(pub u32);

impl fmt::Display for ResId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x7f{:06x}", self.0)
    }
}

/// A resource payload.
#[derive(Debug, Clone, PartialEq)]
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

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    qualifiers: Qualifiers,
    value: ResourceValue,
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceTable {
    /// Name → variants, each variant list kept sorted by *descending*
    /// qualifier specificity so resolution takes the first match.
    entries: BTreeMap<String, Vec<Entry>>,
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
        // Variants are sorted by descending specificity, so the first
        // match is the best match.
        variants
            .iter()
            .find(|e| e.qualifiers.matches(config))
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
