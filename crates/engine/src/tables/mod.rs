//! Node-local storage: the two-level hash tables of Section 4.3.5
//! (ALQT, VLQT, VLTT), the DAI-V evaluator store, and [`Tables`], the
//! five kinds of a holder's state as one value.

pub mod alqt;
pub mod holdings;
pub mod keys;
pub mod vlqt;
pub mod vltt;
pub mod vstore;

pub use alqt::{Alqt, StoredQuery};
pub use holdings::{Held, Tables};
pub use vlqt::{RewrittenEntry, StoredRewritten, Vlqt};
pub use vltt::{StoredTuple, Vltt};
pub use vstore::{StoredValueTuple, VStore};
