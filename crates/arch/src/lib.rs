//! # olsq2-arch
//!
//! Coupling graphs of NISQ processors for the OLSQ2 reproduction: the
//! generic [`CouplingGraph`] type with precomputed BFS distances, plus
//! constructors for every device the paper evaluates on — rectangular
//! [`grid`]s, [`ibm_qx2`], Rigetti [`aspen4`], Google [`sycamore54`], and
//! IBM [`eagle127`] (heavy-hex).
//!
//! ## Example
//!
//! ```
//! use olsq2_arch::{sycamore54, eagle127};
//! let syc = sycamore54();
//! assert_eq!(syc.num_qubits(), 54);
//! let eagle = eagle127();
//! assert_eq!(eagle.num_qubits(), 127);
//! assert!(eagle.is_connected());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod devices;
mod graph;

pub use devices::{
    aspen4, complete, device_by_name, eagle127, grid, heavy_hex, ibm_qx2, ibm_qx5, ibm_tokyo, line,
    sycamore54,
};
pub use graph::{BuildGraphError, CouplingGraph, SubGraph};
