//! Fixed-size packet lay-out for tensor data.
//!
//! ECCheck reserves fixed-size data and encoding buffers per worker
//! (64 MB each in the paper's settings, §V-B) and streams tensor data
//! through them: tensors of wildly varying sizes are laid head-to-tail
//! into buffers, and a buffer that fills up becomes a *data packet* that
//! enters the encode → XOR-reduce → P2P pipeline (§III-C step 3).
//!
//! The lay-out is strictly sequential and deterministic — the tensors
//! concatenated, zero-padded to a whole number of packets — so every
//! node can derive it from the tensor keys alone, and the engine writes
//! it straight into its data chunks. Packets carry no checksum of their
//! own: integrity is the stored chunk's manifest entry (its
//! [`crate::crc32`]), computed once when the chunk is written and
//! verified once when it is read. [`Packer::pack`] and
//! [`Packer::unpack`] materialise the same lay-out packet by packet for
//! the benchmark ledger and as the test-side reference.

use crate::CheckpointError;

/// Where a contiguous piece of one tensor landed in the packet stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TensorExtent {
    /// Index of the tensor in the decomposition's key order.
    pub tensor: usize,
    /// Offset within the tensor where this piece starts.
    pub tensor_offset: usize,
    /// Index of the packet the piece landed in.
    pub packet: usize,
    /// Offset within the packet.
    pub packet_offset: usize,
    /// Piece length in bytes.
    pub len: usize,
}

/// Sequential packer producing fixed-size packets.
///
/// # Examples
///
/// ```
/// use ecc_checkpoint::Packer;
///
/// let packer = Packer::new(64)?;
/// let tensors = vec![vec![1u8; 100], vec![2u8; 20]];
/// let (packets, extents) = packer.pack(&tensors);
/// assert_eq!(packets.len(), 2); // 120 bytes -> two 64-byte packets
/// let back = packer.unpack(&packets, &extents, &[100, 20])?;
/// assert_eq!(back, tensors);
/// # Ok::<(), ecc_checkpoint::CheckpointError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packer {
    packet_size: usize,
}

impl Packer {
    /// Creates a packer with the given packet size in bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::BadTensor`] when the size is zero or
    /// not 8-byte aligned (erasure coding operates on 64-bit words).
    pub fn new(packet_size: usize) -> Result<Self, CheckpointError> {
        if packet_size == 0 || !packet_size.is_multiple_of(8) {
            return Err(CheckpointError::BadTensor {
                detail: format!("packet size {packet_size} must be a positive multiple of 8"),
            });
        }
        Ok(Self { packet_size })
    }

    /// The configured packet size.
    pub fn packet_size(&self) -> usize {
        self.packet_size
    }

    /// Number of packets needed for `total_bytes` of tensor data.
    pub fn packet_count(&self, total_bytes: usize) -> usize {
        total_bytes.div_ceil(self.packet_size).max(1)
    }

    /// Packs tensor buffers head-to-tail into fixed-size packets,
    /// zero-padding the last one. Returns the packets and the extent map.
    pub fn pack(&self, tensors: &[Vec<u8>]) -> (Vec<Vec<u8>>, Vec<TensorExtent>) {
        let total: usize = tensors.iter().map(Vec::len).sum();
        let n_packets = self.packet_count(total);
        let mut raw: Vec<Vec<u8>> =
            (0..n_packets).map(|_| Vec::with_capacity(self.packet_size)).collect();
        let mut extents = Vec::new();
        let mut packet = 0usize;
        for (t, tensor) in tensors.iter().enumerate() {
            let mut offset = 0usize;
            while offset < tensor.len() {
                if raw[packet].len() == self.packet_size {
                    packet += 1;
                }
                let room = self.packet_size - raw[packet].len();
                let take = room.min(tensor.len() - offset);
                extents.push(TensorExtent {
                    tensor: t,
                    tensor_offset: offset,
                    packet,
                    packet_offset: raw[packet].len(),
                    len: take,
                });
                raw[packet].extend_from_slice(&tensor[offset..offset + take]);
                offset += take;
            }
        }
        for buf in &mut raw {
            buf.resize(self.packet_size, 0);
        }
        (raw, extents)
    }

    /// Rebuilds tensor buffers from packets using the extent map.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::ExtentOutOfRange`] when an extent points
    /// outside the packets or tensors.
    pub fn unpack(
        &self,
        packets: &[Vec<u8>],
        extents: &[TensorExtent],
        tensor_lens: &[usize],
    ) -> Result<Vec<Vec<u8>>, CheckpointError> {
        let mut tensors: Vec<Vec<u8>> = tensor_lens.iter().map(|&len| vec![0u8; len]).collect();
        for e in extents {
            let packet =
                packets.get(e.packet).ok_or_else(|| CheckpointError::ExtentOutOfRange {
                    detail: format!("packet {} of {}", e.packet, packets.len()),
                })?;
            let src = packet.get(e.packet_offset..e.packet_offset + e.len).ok_or_else(|| {
                CheckpointError::ExtentOutOfRange {
                    detail: format!(
                        "bytes {}..{} of packet {}",
                        e.packet_offset,
                        e.packet_offset + e.len,
                        e.packet
                    ),
                }
            })?;
            let tensor =
                tensors.get_mut(e.tensor).ok_or_else(|| CheckpointError::ExtentOutOfRange {
                    detail: format!("tensor {} of {}", e.tensor, tensor_lens.len()),
                })?;
            let dst =
                tensor.get_mut(e.tensor_offset..e.tensor_offset + e.len).ok_or_else(|| {
                    CheckpointError::ExtentOutOfRange {
                        detail: format!(
                            "bytes {}..{} of tensor {}",
                            e.tensor_offset,
                            e.tensor_offset + e.len,
                            e.tensor
                        ),
                    }
                })?;
            dst.copy_from_slice(src);
        }
        Ok(tensors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pack_unpack_round_trips() {
        let packer = Packer::new(64).unwrap();
        let tensors = vec![
            (0u8..100).collect::<Vec<u8>>(),
            vec![7u8; 3],
            Vec::new(),
            (0u8..200).rev().collect(),
        ];
        let lens: Vec<usize> = tensors.iter().map(Vec::len).collect();
        let (packets, extents) = packer.pack(&tensors);
        assert!(packets.iter().all(|p| p.len() == 64));
        let back = packer.unpack(&packets, &extents, &lens).unwrap();
        assert_eq!(back, tensors);
    }

    #[test]
    fn tensor_larger_than_packet_spans_packets() {
        let packer = Packer::new(16).unwrap();
        let tensors = vec![(0u8..40).collect::<Vec<u8>>()];
        let (packets, extents) = packer.pack(&tensors);
        assert_eq!(packets.len(), 3);
        assert_eq!(extents.len(), 3);
        assert_eq!(packer.unpack(&packets, &extents, &[40]).unwrap(), tensors);
    }

    #[test]
    fn empty_input_yields_one_padded_packet() {
        let packer = Packer::new(32).unwrap();
        let (packets, extents) = packer.pack(&[]);
        assert_eq!(packets.len(), 1);
        assert!(extents.is_empty());
        assert!(packets[0].iter().all(|&b| b == 0));
    }

    #[test]
    fn bad_packet_size_is_rejected() {
        assert!(Packer::new(0).is_err());
        assert!(Packer::new(12).is_err());
        assert!(Packer::new(8).is_ok());
    }

    #[test]
    fn extent_out_of_range_is_reported() {
        let packer = Packer::new(16).unwrap();
        let tensors = vec![vec![1u8; 8]];
        let (packets, mut extents) = packer.pack(&tensors);
        extents[0].packet = 5;
        assert!(matches!(
            packer.unpack(&packets, &extents, &[8]),
            Err(CheckpointError::ExtentOutOfRange { .. })
        ));
    }

    proptest! {
        /// The fact the engine relies on when it lays tensors straight
        /// into its data chunks: packing is concatenation plus zero
        /// padding to a whole number of packets, nothing else.
        #[test]
        fn prop_pack_is_concatenation_zero_padded_and_round_trips(
            lens in proptest::collection::vec(0usize..200, 0..8),
            packet_size_words in 1usize..16,
        ) {
            let packer = Packer::new(packet_size_words * 8).unwrap();
            let tensors: Vec<Vec<u8>> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| (0..len).map(|j| (i * 31 + j) as u8).collect())
                .collect();
            let (packets, extents) = packer.pack(&tensors);
            let mut flat = tensors.concat();
            flat.resize(packer.packet_count(flat.len()) * packer.packet_size(), 0);
            prop_assert_eq!(packets.concat(), flat);
            prop_assert!(packets.iter().all(|p| p.len() == packer.packet_size()));
            let back = packer.unpack(&packets, &extents, &lens).unwrap();
            prop_assert_eq!(back, tensors);
        }

        #[test]
        fn prop_packet_count_is_minimal(
            lens in proptest::collection::vec(0usize..200, 1..8),
        ) {
            let packer = Packer::new(64).unwrap();
            let tensors: Vec<Vec<u8>> = lens.iter().map(|&l| vec![0u8; l]).collect();
            let total: usize = lens.iter().sum();
            let (packets, _) = packer.pack(&tensors);
            prop_assert_eq!(packets.len(), total.div_ceil(64).max(1));
        }
    }
}
