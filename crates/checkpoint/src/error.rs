use std::error::Error;
use std::fmt;

/// Errors produced by checkpoint serialization, decomposition and packing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The byte stream ended while more data was expected.
    UnexpectedEof,
    /// An unknown type tag was found while deserializing.
    BadTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// A string was not valid UTF-8.
    BadUtf8,
    /// Tensor metadata is inconsistent (shape/dtype vs. byte length).
    BadTensor {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// Reassembly failed because components are inconsistent.
    Reassembly {
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// Unpacking referenced data outside the packed region.
    ExtentOutOfRange {
        /// Human-readable description of the bad extent.
        detail: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::UnexpectedEof => write!(f, "unexpected end of checkpoint stream"),
            CheckpointError::BadTag { tag } => write!(f, "unknown value tag {tag:#04x}"),
            CheckpointError::BadUtf8 => write!(f, "invalid UTF-8 in checkpoint string"),
            CheckpointError::BadTensor { detail } => write!(f, "bad tensor: {detail}"),
            CheckpointError::Reassembly { detail } => {
                write!(f, "cannot reassemble state_dict: {detail}")
            }
            CheckpointError::ExtentOutOfRange { detail } => {
                write!(f, "extent out of range: {detail}")
            }
        }
    }
}

impl Error for CheckpointError {}
