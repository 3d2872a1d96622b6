//! Data-only layout templates.
//!
//! A [`LayoutTemplate`] is the model of a layout XML file: a tree of nodes,
//! each carrying a view *class name*, an optional id name, and string
//! attributes. The view crate's inflater resolves class names to concrete
//! view kinds at inflate time — mirroring how Android resolves XML tags —
//! so this crate stays free of any view-system dependency.

use std::collections::BTreeMap;

/// One node of a layout template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutNode {
    /// View class name, e.g. `"TextView"`, `"ImageView"`, `"LinearLayout"`.
    pub class: String,
    /// The `android:id` name, if the node has one. Views without ids cannot
    /// have their hierarchy state saved — the classic cause of state loss.
    pub id_name: Option<String>,
    /// Literal attributes (`text`, `src`, …). Values starting with `"@"`
    /// are resource references resolved at inflate time.
    pub attrs: BTreeMap<String, String>,
    /// Child nodes (only meaningful for view groups).
    pub children: Vec<LayoutNode>,
}

impl LayoutNode {
    /// Creates a leaf node of the given class.
    pub fn new(class: &str) -> Self {
        LayoutNode {
            class: class.to_owned(),
            id_name: None,
            attrs: BTreeMap::new(),
            children: Vec::new(),
        }
    }

    /// Sets the id name.
    pub fn with_id(mut self, id_name: &str) -> Self {
        self.id_name = Some(id_name.to_owned());
        self
    }

    /// Adds an attribute.
    pub fn with_attr(mut self, key: &str, value: &str) -> Self {
        self.attrs.insert(key.to_owned(), value.to_owned());
        self
    }

    /// Adds a child node.
    pub fn with_child(mut self, child: LayoutNode) -> Self {
        self.children.push(child);
        self
    }

    /// Adds many child nodes.
    pub fn with_children(mut self, children: impl IntoIterator<Item = LayoutNode>) -> Self {
        self.children.extend(children);
        self
    }

    /// Total number of nodes in this subtree (including `self`).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(LayoutNode::node_count)
            .sum::<usize>()
    }

    /// Depth of this subtree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(LayoutNode::depth)
            .max()
            .unwrap_or(0)
    }

    /// Pre-order iteration over the subtree.
    pub fn iter(&self) -> LayoutIter<'_> {
        LayoutIter { stack: vec![self] }
    }
}

/// Pre-order iterator over a layout subtree.
#[derive(Debug)]
pub struct LayoutIter<'a> {
    stack: Vec<&'a LayoutNode>,
}

impl<'a> Iterator for LayoutIter<'a> {
    type Item = &'a LayoutNode;

    fn next(&mut self) -> Option<&'a LayoutNode> {
        let node = self.stack.pop()?;
        // Push children in reverse so iteration is left-to-right pre-order.
        for child in node.children.iter().rev() {
            self.stack.push(child);
        }
        Some(node)
    }
}

/// A complete layout: a named template with a single root node.
///
/// Read access goes through [`name`](LayoutTemplate::name) and
/// [`root`](LayoutTemplate::root), mutation through
/// [`root_mut`](LayoutTemplate::root_mut).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutTemplate {
    /// The layout's resource name (e.g. `"activity_main"`).
    name: String,
    /// The root node — conventionally a view group that becomes the child
    /// of the window's decor view.
    root: LayoutNode,
}

impl LayoutTemplate {
    /// Creates a template.
    pub fn new(name: &str, root: LayoutNode) -> Self {
        LayoutTemplate {
            name: name.to_owned(),
            root,
        }
    }

    /// The layout's resource name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root node.
    pub fn root(&self) -> &LayoutNode {
        &self.root
    }

    /// Mutable access to the root node.
    pub fn root_mut(&mut self) -> &mut LayoutNode {
        &mut self.root
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.root.node_count()
    }

    /// Collects the id names declared anywhere in the template.
    pub fn declared_ids(&self) -> Vec<&str> {
        self.root
            .iter()
            .filter_map(|n| n.id_name.as_deref())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LayoutTemplate {
        LayoutTemplate::new(
            "activity_main",
            LayoutNode::new("LinearLayout")
                .with_id("root")
                .with_children([
                    LayoutNode::new("TextView")
                        .with_id("title")
                        .with_attr("text", "@string/title"),
                    LayoutNode::new("FrameLayout")
                        .with_child(LayoutNode::new("ImageView").with_id("hero")),
                    LayoutNode::new("Button")
                        .with_id("go")
                        .with_attr("text", "Go"),
                ]),
        )
    }

    #[test]
    fn counts_and_depth() {
        let t = sample();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.root().depth(), 3);
    }

    #[test]
    fn preorder_iteration_is_left_to_right() {
        let t = sample();
        let classes: Vec<&str> = t.root().iter().map(|n| n.class.as_str()).collect();
        assert_eq!(
            classes,
            vec![
                "LinearLayout",
                "TextView",
                "FrameLayout",
                "ImageView",
                "Button"
            ]
        );
    }

    #[test]
    fn declared_ids_skips_anonymous_nodes() {
        let t = sample();
        assert_eq!(t.declared_ids(), vec!["root", "title", "hero", "go"]);
    }

    #[test]
    fn builder_sets_attrs() {
        let n = LayoutNode::new("TextView").with_attr("text", "hi");
        assert_eq!(n.attrs.get("text").map(String::as_str), Some("hi"));
        assert_eq!(n.node_count(), 1);
        assert_eq!(n.depth(), 1);
    }
}
