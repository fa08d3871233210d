//! Router-level paths.

use serde::{Deserialize, Serialize};

use concilium_types::{LinkId, RouterId};

/// A router-level path: the sequence of routers visited and the links
/// crossed between them.
///
/// This is what a host learns about the route to one of its peers — the
/// reproduction's substitute for RocketFuel-derived link maps (§3.2).
///
/// Invariant: `routers.len() == links.len() + 1` for non-empty paths; a
/// trivial path from a router to itself has one router and no links.
///
/// # Examples
///
/// ```
/// use concilium_topology::IpPath;
/// use concilium_types::{LinkId, RouterId};
///
/// let p = IpPath::new(
///     vec![RouterId(0), RouterId(4), RouterId(9)],
///     vec![LinkId(2), LinkId(7)],
/// );
/// assert_eq!(p.hop_count(), 2);
/// assert_eq!(p.links()[1], LinkId(7));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct IpPath {
    routers: Vec<RouterId>,
    links: Vec<LinkId>,
}

impl IpPath {
    /// Creates a path from its router and link sequences.
    ///
    /// # Panics
    ///
    /// Panics if the sequences are inconsistent
    /// (`routers.len() != links.len() + 1`) or the path is empty.
    pub fn new(routers: Vec<RouterId>, links: Vec<LinkId>) -> Self {
        assert!(!routers.is_empty(), "a path visits at least one router");
        assert_eq!(
            routers.len(),
            links.len() + 1,
            "path has {} routers but {} links",
            routers.len(),
            links.len()
        );
        IpPath { routers, links }
    }

    /// First router on the path.
    pub fn source(&self) -> RouterId {
        self.routers[0]
    }

    /// Number of links crossed.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// The links crossed, in order from source to destination.
    pub fn links(&self) -> &[LinkId] {
        &self.links
    }

    /// The routers visited, in order.
    pub fn routers(&self) -> &[RouterId] {
        &self.routers
    }

    /// The link at hop `i` (0 = first hop from the source).
    ///
    /// # Panics
    ///
    /// Panics if `i >= hop_count()`.
    pub(crate) fn link_at(&self, i: usize) -> LinkId {
        self.links[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let p = IpPath::new(
            vec![RouterId(1), RouterId(2), RouterId(3)],
            vec![LinkId(10), LinkId(11)],
        );
        assert_eq!(p.source(), RouterId(1));
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.link_at(1), LinkId(11));
        assert_eq!(p.links(), &[LinkId(10), LinkId(11)]);
    }

    #[test]
    fn trivial_path() {
        let p = IpPath::new(vec![RouterId(5)], Vec::new());
        assert_eq!(p.source(), RouterId(5));
        assert_eq!(p.routers(), &[RouterId(5)]);
        assert_eq!(p.hop_count(), 0);
    }

    #[test]
    #[should_panic(expected = "routers but")]
    fn inconsistent_lengths_rejected() {
        let _ = IpPath::new(vec![RouterId(1)], vec![LinkId(0)]);
    }

    #[test]
    #[should_panic(expected = "at least one router")]
    fn empty_path_rejected() {
        let _ = IpPath::new(Vec::new(), Vec::new());
    }
}
