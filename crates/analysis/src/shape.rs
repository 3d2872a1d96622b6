//! Extracting the analyzable *shape* of an app from its model.
//!
//! The analyzer never runs the simulator's change protocol; it only
//! performs the same deterministic construction the framework would do
//! on launch — strict layout inflation plus `onCreate` (which is where
//! dynamically created views appear) — once per orientation. Everything
//! the passes need is captured here: the per-configuration view trees,
//! the async specs, the app's manifest-level flags, and (for data-loss
//! corpus apps) the per-field persistence descriptors.
//!
//! Each orientation inflates its template once: the strict inflation
//! doubles as the tree `onCreate` starts from, and only a template that
//! fails it is inflated again, leniently, as the runtime would. The
//! finished tree is moved out of the throwaway activity, not copied.
//! Extraction itself is not memoized: every app of a corpus has its own
//! shape and an `rchlint` process analyses each app once, so a shape
//! cache would never hit. The built-app slot underneath still applies,
//! and `tests/memo_parity.rs` holds the analysis results equal with it
//! on and off.

use droidsim_app::{Activity, ActivityInstanceId, AppModel, AsyncSpec};
use droidsim_atms::ActivityRecordId;
use droidsim_config::{ConfigChanges, Configuration};
use droidsim_view::{try_inflate, ViewError, ViewId, ViewTree};
use rch_workloads::{DataLossScenario, FieldOwner, FieldPersistence, GenericAppSpec};

/// One inflated configuration of the app's main layout.
#[derive(Debug, Clone)]
pub struct ConfigTree {
    /// Qualifier label (`"portrait"` / `"landscape"`).
    pub label: &'static str,
    /// The tree after inflation **and** `onCreate` (dynamic views
    /// included), exactly what a fresh launch in this configuration
    /// shows.
    pub tree: ViewTree,
}

/// The statically visible shape of one app.
#[derive(Debug, Clone)]
pub struct AppShape {
    /// App name as the corpus lists it.
    pub app: String,
    /// The activity component.
    pub activity: String,
    /// Whether the app declares `android:configChanges` for orientation
    /// changes (self-handling).
    pub handles_changes: bool,
    /// Whether the app implements `onSaveInstanceState`.
    pub saves_instance_state: bool,
    /// Async work the test scenario has in flight across the change.
    pub async_specs: Vec<AsyncSpec>,
    /// The inflated tree per orientation.
    pub trees: Vec<ConfigTree>,
    /// Strict-inflation failures per orientation label: templates the
    /// lenient runtime inflater would silently truncate.
    pub inflate_errors: Vec<(&'static str, ViewError)>,
    /// Per-field persistence descriptors, for data-loss corpus apps.
    pub dataloss: Option<DataLossScenario>,
}

/// The two configurations the §6 oracle rotates between.
fn analyzed_configs() -> [(&'static str, Configuration); 2] {
    [
        ("portrait", Configuration::phone_portrait()),
        ("landscape", Configuration::phone_landscape()),
    ]
}

impl AppShape {
    /// Extracts the shape of a corpus descriptor.
    pub fn from_spec(spec: &GenericAppSpec) -> AppShape {
        let app = spec.build();
        let mut async_specs = Vec::new();
        if spec.uses_async_task {
            async_specs.push(spec.async_task());
        }
        if let Some(task) = spec.dataloss_async_task() {
            async_specs.push(task);
        }
        let mut shape = AppShape::from_model(&spec.name, &app, async_specs);
        shape.dataloss = spec.dataloss.clone();
        shape
    }

    /// Extracts the shape of any [`AppModel`] (e.g. `SimpleApp`).
    ///
    /// `async_specs` is passed in because the trait has no way to ask a
    /// model what background work its scenario starts.
    pub fn from_model(app: &str, model: &dyn AppModel, async_specs: Vec<AsyncSpec>) -> AppShape {
        let mut trees = Vec::new();
        let mut inflate_errors = Vec::new();
        for (label, config) in analyzed_configs() {
            // Strict inflation on the raw template: the runtime inflater
            // is lenient and would hide a truncated subtree. When it
            // succeeds its tree is exactly the lenient one, so `onCreate`
            // starts from it.
            let strict = model
                .resources()
                .resolve_layout(model.main_layout(), &config)
                .map(|template| try_inflate(template, model.resources(), &config));
            // A throwaway instance gives the post-`onCreate` tree —
            // including dynamically added views — without any device.
            let mut activity = Activity::new(
                ActivityInstanceId::new(0),
                ActivityRecordId::new(0),
                model.component_name(),
                config,
            );
            match strict {
                Ok(Ok(inflated)) => activity.perform_create_inflated(model, inflated, None),
                Ok(Err(e)) => {
                    inflate_errors.push((label, e));
                    activity.perform_create(model, None);
                }
                Err(_) => activity.perform_create(model, None),
            }
            let Activity { tree, .. } = activity;
            trees.push(ConfigTree { label, tree });
        }
        AppShape {
            app: app.to_owned(),
            activity: model.component_name().to_owned(),
            handles_changes: model.handled_changes().contains(ConfigChanges::ORIENTATION),
            saves_instance_state: model.implements_save_instance_state(),
            async_specs,
            trees,
            inflate_errors,
            dataloss: None,
        }
    }

    /// Where a data-loss field shows up in the extracted trees: the
    /// first tree containing a view named after the field, if any.
    /// Member fields and dialog views (created only when the dialog is
    /// shown, which `onCreate` alone never does) have no tree site.
    pub fn field_site(&self, field_key: &str, owner: FieldOwner) -> Option<(&ConfigTree, ViewId)> {
        match owner {
            FieldOwner::Member | FieldOwner::Dialog => None,
            FieldOwner::Fragment | FieldOwner::AsyncView | FieldOwner::InputView => self
                .trees
                .iter()
                .find_map(|ct| ct.tree.find_by_id_name(field_key).map(|id| (ct, id))),
        }
    }

    /// Which save site, if any, statically covers a field — the "write"
    /// half of the save/restore reachability pass.
    pub fn save_site(&self, persistence: FieldPersistence) -> Option<&'static str> {
        match persistence {
            FieldPersistence::Transient => None,
            FieldPersistence::BundleSaved => Some("onSaveInstanceState"),
            FieldPersistence::StorePersisted => Some("the persistent store"),
        }
    }
}

/// The `decor>root>…` id path of a view, for [`crate::diag::Loc`]
/// locations. Anonymous views contribute their class name.
pub fn view_path(tree: &ViewTree, id: ViewId) -> String {
    let mut segments = Vec::new();
    let mut cursor = Some(id);
    while let Some(v) = cursor {
        let Ok(node) = tree.view(v) else { break };
        let segment = node
            .id_name_str()
            .map_or_else(|| node.kind.class_name().to_owned(), str::to_owned);
        segments.push(segment);
        cursor = node.parent;
    }
    segments.reverse();
    segments.join(">")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rch_workloads::{
        DataLossClass, DataLossField, DataLossScenario, StateItem, StateMechanism,
    };

    fn spec_with(item: StateItem) -> GenericAppSpec {
        let mut s = GenericAppSpec::sized("ShapeProbe", "1K+", false);
        s.state_items.push(item);
        s
    }

    #[test]
    fn shape_has_both_orientations_and_dynamic_views() {
        let spec = spec_with(StateItem::new(
            "dyn_state",
            StateMechanism::DynamicViewNoSave,
            "v",
        ));
        let shape = AppShape::from_spec(&spec);
        assert_eq!(shape.trees.len(), 2);
        for t in &shape.trees {
            assert!(
                t.tree.find_by_id_name("dyn_state").is_some(),
                "{}: dynamic views are part of the analyzable shape",
                t.label
            );
        }
        assert!(shape.inflate_errors.is_empty());
        assert!(!shape.handles_changes);
    }

    /// An app whose main layout nests a view under a `TextView` in both
    /// orientations: it inflates leniently but not strictly.
    struct OrphanApp(droidsim_resources::ResourceTable);

    impl OrphanApp {
        fn new() -> OrphanApp {
            use droidsim_config::Orientation;
            use droidsim_resources::{
                LayoutNode, LayoutTemplate, Qualifiers, ResourceTable, ResourceValue,
            };
            let mut table = ResourceTable::new();
            for qualifiers in [
                Qualifiers::any(),
                Qualifiers::any().with_orientation(Orientation::Landscape),
            ] {
                let root = LayoutNode::new("LinearLayout")
                    .with_id("root")
                    .with_child(
                        LayoutNode::new("TextView")
                            .with_id("title")
                            .with_child(LayoutNode::new("Button").with_id("orphan")),
                    )
                    .with_child(LayoutNode::new("Button").with_id("go"));
                table.put(
                    "activity_main",
                    qualifiers,
                    ResourceValue::Layout(LayoutTemplate::new("activity_main", root)),
                );
            }
            OrphanApp(table)
        }
    }

    impl AppModel for OrphanApp {
        fn component_name(&self) -> &str {
            "com.orphan/.Main"
        }

        fn resources(&self) -> &droidsim_resources::ResourceTable {
            &self.0
        }

        fn main_layout(&self) -> &str {
            "activity_main"
        }
    }

    #[test]
    fn strict_failure_falls_back_to_the_lenient_create() {
        let app = OrphanApp::new();
        let shape = AppShape::from_model("Orphan", &app, Vec::new());
        let failed: Vec<_> = shape.inflate_errors.iter().map(|(l, _)| *l).collect();
        assert_eq!(failed, ["portrait", "landscape"]);
        for (_, e) in &shape.inflate_errors {
            assert!(matches!(e, ViewError::NotAContainer { .. }), "{e:?}");
        }
        for ((label, config), ct) in analyzed_configs().into_iter().zip(&shape.trees) {
            assert_eq!(ct.label, label);
            let mut fresh = Activity::new(
                ActivityInstanceId::new(0),
                ActivityRecordId::new(0),
                app.component_name(),
                config,
            );
            fresh.perform_create(&app, None);
            assert_eq!(ct.tree, fresh.tree, "{label}: the lenient onCreate tree");
            assert!(ct.tree.find_by_id_name("orphan").is_none(), "{label}");
            assert!(ct.tree.find_by_id_name("title").is_some(), "{label}");
            assert!(ct.tree.find_by_id_name("go").is_some(), "{label}");
        }
        let strict_errors: Vec<_> = crate::analyze_app(&shape, None)
            .into_iter()
            .filter(|d| d.message.contains("does not inflate strictly"))
            .collect();
        assert_eq!(strict_errors.len(), 2);
        for d in &strict_errors {
            assert_eq!(
                (d.code.code(), d.severity),
                ("RCH002", crate::Severity::Error)
            );
        }
    }

    #[test]
    fn view_paths_walk_from_decor_down() {
        let spec = spec_with(StateItem::new(
            "issue_state",
            StateMechanism::CustomViewNoSave,
            "v",
        ));
        let shape = AppShape::from_spec(&spec);
        let tree = &shape.trees[0].tree;
        let id = tree.find_by_id_name("issue_state").unwrap();
        let path = view_path(tree, id);
        assert!(
            path.ends_with(">root>issue_state"),
            "path walks decor→root→view: {path}"
        );
    }

    #[test]
    fn dataloss_fields_surface_in_the_shape() {
        let mut spec = GenericAppSpec::sized("ShapeDl", "1K+", false);
        spec.dataloss = Some(DataLossScenario::new(
            DataLossClass::SubStateOwner,
            vec![
                DataLossField::new(
                    "alpha_field",
                    FieldOwner::Fragment,
                    FieldPersistence::Transient,
                ),
                DataLossField::new(
                    "beta_field",
                    FieldOwner::Dialog,
                    FieldPersistence::Transient,
                ),
            ],
        ));
        let shape = AppShape::from_spec(&spec);
        let dl = shape.dataloss.as_ref().unwrap();
        assert_eq!(dl.fields.len(), 2);
        // The fragment view is attached in onCreate and thus visible;
        // the dialog view only exists once the dialog is shown.
        assert!(shape
            .field_site("alpha_field", FieldOwner::Fragment)
            .is_some());
        assert!(shape.field_site("beta_field", FieldOwner::Dialog).is_none());
    }

    #[test]
    fn distinct_descriptors_never_collide_in_the_cache() {
        // Same name, different dataloss descriptor: the built-app slot
        // must separate them or the second extraction would return the
        // first's trees.
        let mut a = GenericAppSpec::sized("ShapeTwin", "1K+", false);
        a.dataloss = Some(DataLossScenario::new(
            DataLossClass::AsyncRace,
            vec![DataLossField::new(
                "alpha_field",
                FieldOwner::AsyncView,
                FieldPersistence::Transient,
            )],
        ));
        let mut b = GenericAppSpec::sized("ShapeTwin", "1K+", false);
        b.dataloss = None;
        for _ in 0..3 {
            let sa = AppShape::from_spec(&a);
            let sb = AppShape::from_spec(&b);
            assert!(sa.trees[0].tree.find_by_id_name("alpha_field").is_some());
            assert!(sb.trees[0].tree.find_by_id_name("alpha_field").is_none());
        }
    }
}
