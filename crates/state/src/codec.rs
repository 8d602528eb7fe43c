//! Binary codec — re-exported from [`sfcc_codec`], where it lives so the
//! backend's program images can share it.

pub use sfcc_codec::{DecodeError, Reader, Writer};
