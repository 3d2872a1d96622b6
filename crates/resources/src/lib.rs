//! Qualifier-based resource table and layout templates.
//!
//! Android selects resources (layouts, strings, drawables) by matching
//! *configuration qualifiers* — `layout-land/`, `values-zh/`, `sw600dp/` —
//! against the current [`Configuration`](droidsim_config::Configuration).
//! A runtime configuration change exists precisely because this selection
//! must be redone: the paper's benchmark app ships `layout-land` and
//! `layout-port` variants (§A.5), and stock Android restarts the activity
//! to reload them.
//!
//! This crate models that machinery:
//!
//! * [`Qualifiers`] — a (partial) predicate over configurations,
//! * [`ResourceTable`] — named resources, each with one or more qualified
//!   variants, resolved by Android-style precedence,
//! * [`LayoutTemplate`] — a data-only view-tree description that the view
//!   crate's inflater instantiates (class names are resolved at inflate
//!   time, exactly like Android XML).
//!
//! # Examples
//!
//! ```
//! use droidsim_config::{Configuration, Orientation};
//! use droidsim_resources::{Qualifiers, ResourceTable, ResourceValue};
//!
//! let mut table = ResourceTable::new();
//! table.put("greeting", Qualifiers::any(), ResourceValue::string("Hello"));
//! table.put(
//!     "greeting",
//!     Qualifiers::any().with_language("zh"),
//!     ResourceValue::string("你好"),
//! );
//! let config = Configuration::phone_portrait();
//! assert_eq!(table.resolve_string("greeting", &config), Some("Hello"));
//! ```

pub mod layout;
pub mod qualifiers;
pub mod table;

pub use layout::{LayoutNode, LayoutTemplate};
pub use qualifiers::Qualifiers;
pub use table::{ResId, ResourceError, ResourceTable, ResourceValue};
