//! The dataflow registry: builtin spaces plus caller extensions.
//!
//! The registry is the *only* place the closed [`DataflowKind`] taxonomy
//! meets the open [`Dataflow`] trait. Everything downstream — the
//! optimizer, the cluster planner, the serving plan compiler — takes
//! `&dyn Dataflow` and never matches on kinds, so registering a seventh
//! space here is all it takes to search, plan and serve it.

use crate::dataflow::Dataflow;
use crate::error::DataflowError;
use crate::id::DataflowId;
use crate::kind::DataflowKind;
use std::sync::Arc;

/// Returns the builtin model implementing `kind`, as a trait object with
/// a `'static` lifetime (the six spaces are stateless unit structs).
///
/// # Example
///
/// ```
/// use eyeriss_dataflow::{registry, DataflowKind};
///
/// let rs = registry::builtin(DataflowKind::RowStationary);
/// assert_eq!(rs.id(), DataflowKind::RowStationary.id());
/// assert_eq!(rs.rf_bytes(), 512.0);
/// ```
pub fn builtin(kind: DataflowKind) -> &'static dyn Dataflow {
    match kind {
        DataflowKind::RowStationary => &crate::rs::RowStationaryModel,
        DataflowKind::WeightStationary => &crate::ws::WeightStationaryModel,
        DataflowKind::OutputStationaryA => &crate::os_a::OutputStationaryAModel,
        DataflowKind::OutputStationaryB => &crate::os_b::OutputStationaryBModel,
        DataflowKind::OutputStationaryC => &crate::os_c::OutputStationaryCModel,
        DataflowKind::NoLocalReuse => &crate::nlr::NoLocalReuseModel,
    }
}

/// An ordered set of [`Dataflow`] implementations, looked up by
/// [`DataflowId`] or label.
///
/// # Example
///
/// Register a seventh dataflow next to the paper's six:
///
/// ```
/// use eyeriss_dataflow::{CandidateSink, Dataflow, DataflowId, DataflowRegistry};
/// use eyeriss_arch::AcceleratorConfig;
/// use eyeriss_nn::LayerProblem;
///
/// struct Toy;
/// impl Dataflow for Toy {
///     fn id(&self) -> DataflowId { DataflowId::new("TOY") }
///     fn rf_bytes(&self) -> f64 { 8.0 }
///     fn for_each_candidate(&self, _: &LayerProblem, _: &AcceleratorConfig,
///                           _: &mut dyn CandidateSink) {}
/// }
///
/// let mut reg = DataflowRegistry::builtin();
/// reg.register(std::sync::Arc::new(Toy))?;
/// assert_eq!(reg.len(), 7);
/// assert!(reg.by_label("TOY").is_some());
/// # Ok::<(), eyeriss_dataflow::DataflowError>(())
/// ```
#[derive(Clone)]
pub struct DataflowRegistry {
    entries: Vec<Arc<dyn Dataflow>>,
}

impl DataflowRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        DataflowRegistry {
            entries: Vec::new(),
        }
    }

    /// A registry holding the paper's six dataflows, in figure order.
    pub fn builtin() -> Self {
        let mut reg = DataflowRegistry::empty();
        for kind in DataflowKind::ALL {
            reg.entries.push(builtin_arc(kind));
        }
        reg
    }

    /// Registers a dataflow.
    ///
    /// # Errors
    ///
    /// [`DataflowError::Duplicate`] when the id is already present.
    pub fn register(&mut self, dataflow: Arc<dyn Dataflow>) -> Result<(), DataflowError> {
        let id = dataflow.id();
        if self.get(id).is_some() {
            return Err(DataflowError::Duplicate(id));
        }
        self.entries.push(dataflow);
        Ok(())
    }

    /// Looks a dataflow up by id.
    pub fn get(&self, id: DataflowId) -> Option<&Arc<dyn Dataflow>> {
        self.entries.iter().find(|d| d.id() == id)
    }

    /// Looks a dataflow up by label (the on-disk form of the id).
    pub fn by_label(&self, label: &str) -> Option<&Arc<dyn Dataflow>> {
        self.entries.iter().find(|d| d.id().label() == label)
    }

    /// [`DataflowRegistry::get`] with a typed error for the miss.
    ///
    /// # Errors
    ///
    /// [`DataflowError::Unknown`].
    pub fn resolve(&self, id: DataflowId) -> Result<&Arc<dyn Dataflow>, DataflowError> {
        self.get(id)
            .ok_or_else(|| DataflowError::Unknown(id.label().to_string()))
    }

    /// [`DataflowRegistry::by_label`] with a typed error for the miss.
    ///
    /// # Errors
    ///
    /// [`DataflowError::Unknown`].
    pub fn resolve_label(&self, label: &str) -> Result<&Arc<dyn Dataflow>, DataflowError> {
        self.by_label(label)
            .ok_or_else(|| DataflowError::Unknown(label.to_string()))
    }

    /// The registered dataflows, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<dyn Dataflow>> {
        self.entries.iter()
    }

    /// Number of registered dataflows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for DataflowRegistry {
    fn default() -> Self {
        DataflowRegistry::builtin()
    }
}

impl std::fmt::Debug for DataflowRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list()
            .entries(self.entries.iter().map(|d| d.id()))
            .finish()
    }
}

/// The builtin model for `kind` as a shared trait object (for holders
/// that need owned `Arc<dyn Dataflow>` storage, like a serving compiler).
pub fn builtin_shared(kind: DataflowKind) -> Arc<dyn Dataflow> {
    builtin_arc(kind)
}

/// The builtin model for `kind` as a shared trait object.
fn builtin_arc(kind: DataflowKind) -> Arc<dyn Dataflow> {
    match kind {
        DataflowKind::RowStationary => Arc::new(crate::rs::RowStationaryModel),
        DataflowKind::WeightStationary => Arc::new(crate::ws::WeightStationaryModel),
        DataflowKind::OutputStationaryA => Arc::new(crate::os_a::OutputStationaryAModel),
        DataflowKind::OutputStationaryB => Arc::new(crate::os_b::OutputStationaryBModel),
        DataflowKind::OutputStationaryC => Arc::new(crate::os_c::OutputStationaryCModel),
        DataflowKind::NoLocalReuse => Arc::new(crate::nlr::NoLocalReuseModel),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::CandidateSink;
    use eyeriss_arch::config::AcceleratorConfig;
    use eyeriss_nn::LayerProblem;

    struct Toy;
    impl Dataflow for Toy {
        fn id(&self) -> DataflowId {
            DataflowId::new("TOY")
        }
        fn rf_bytes(&self) -> f64 {
            8.0
        }
        fn for_each_candidate(
            &self,
            _: &LayerProblem,
            _: &AcceleratorConfig,
            _: &mut dyn CandidateSink,
        ) {
        }
    }

    #[test]
    fn builtin_registry_holds_the_six_in_order() {
        let reg = DataflowRegistry::builtin();
        assert_eq!(reg.len(), 6);
        let labels: Vec<_> = reg.iter().map(|d| d.id().label()).collect();
        assert_eq!(labels, ["RS", "WS", "OSA", "OSB", "OSC", "NLR"]);
        for kind in DataflowKind::ALL {
            assert_eq!(reg.resolve(kind.id()).unwrap().id(), kind.id());
            assert_eq!(builtin(kind).id(), kind.id());
            assert_eq!(builtin(kind).rf_bytes(), kind.rf_bytes());
        }
    }

    #[test]
    fn register_rejects_duplicates() {
        let mut reg = DataflowRegistry::builtin();
        reg.register(Arc::new(Toy)).unwrap();
        assert_eq!(reg.len(), 7);
        let err = reg.register(Arc::new(Toy)).unwrap_err();
        assert!(matches!(err, DataflowError::Duplicate(id) if id.label() == "TOY"));
        let err = reg
            .register(builtin_arc(DataflowKind::RowStationary))
            .unwrap_err();
        assert!(matches!(err, DataflowError::Duplicate(_)));
    }

    #[test]
    fn label_resolution_is_typed() {
        let reg = DataflowRegistry::builtin();
        assert!(reg.resolve_label("OSC").is_ok());
        assert!(matches!(
            reg.resolve_label("NOPE"),
            Err(DataflowError::Unknown(l)) if l == "NOPE"
        ));
        assert!(DataflowRegistry::empty().is_empty());
    }
}
