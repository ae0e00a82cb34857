//! The single source of truth for every magic number, format version,
//! and wire-protocol tag in the workspace.
//!
//! Each on-disk format and the TCP wire protocol identifies itself with
//! an 8-byte ASCII magic (or a 4-byte packed one) followed by a version
//! field. Those values used to be restated per crate; now they are
//! defined exactly once here and re-exported where the old names were
//! public API (`fastppv_server::net`, `fastppv_cluster::shard`).
//! `fppv-lint`'s `const-registry` rule rejects any byte-for-byte
//! duplicate literal elsewhere in the tree, and its `doc-drift` check
//! keeps the values quoted in the README in sync with this module.
//!
//! Changing any value here is a format break: bump the corresponding
//! version, update the README's format tables, and keep the old readers
//! fail-closed (they must reject the new magic/version, never
//! misinterpret it).

/// Magic of the index file: the single-file mmap arena (`FlatIndex`).
pub const IDX3_MAGIC: &[u8; 8] = b"FPPVIDX3";
/// Current version of the `FPPVIDX3` format.
pub const IDX3_VERSION: u32 = 3;

/// Magic of the write-ahead log.
pub const WAL_MAGIC: &[u8; 8] = b"FPPVWAL1";
/// Current version of the `FPPVWAL1` format.
pub const WAL_VERSION: u32 = 1;

/// Magic of the WAL manifest (the atomic commit point naming the
/// current checkpoint and WAL position).
pub const MANIFEST_MAGIC: &[u8; 8] = b"FPPVMAN1";

/// Magic of the clustered-store file produced by graph partitioning.
pub const CLUSTER_GRAPH_MAGIC: &[u8; 8] = b"FPPVCLG1";
/// Current version of the `FPPVCLG1` format.
pub const CLUSTER_GRAPH_VERSION: u32 = 1;

/// Magic of the shard-map file: `"FPVM"` read as a big-endian `u32`.
pub const SHARD_MAP_MAGIC: u32 = 0x4650_564D;
/// Current version of the shard-map format.
pub const SHARD_MAP_VERSION: u16 = 1;

/// Wire-protocol magic: `"FPPV"` read as a big-endian `u32`.
pub const NET_MAGIC: u32 = 0x4650_5056;
/// Wire-protocol version negotiated in the hello exchange.
pub const PROTOCOL_VERSION: u16 = 3;

/// Op tag: PPV / top-k query batch.
pub const OP_QUERY: u8 = 0;
/// Op tag: server statistics probe.
pub const OP_STATS: u8 = 1;
/// Op tag: scatter-phase prime-0 sub-query (sharded serving).
pub const OP_PRIME0: u8 = 2;
/// Op tag: scatter-phase expansion sub-query (sharded serving).
pub const OP_EXPAND: u8 = 3;
/// Op tag: two-phase update control (prepare/commit/abort).
pub const OP_UPDATE: u8 = 4;

/// Sentinel epoch meaning "any epoch is acceptable" in sub-query
/// requests (used by single-shard probes and the router's discovery
/// hello).
pub const EPOCH_ANY: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_magics_match_their_ascii_names() {
        assert_eq!(NET_MAGIC.to_be_bytes(), *b"FPPV");
        assert_eq!(SHARD_MAP_MAGIC.to_be_bytes(), *b"FPVM");
    }

    #[test]
    fn eight_byte_magics_are_distinct() {
        let magics = [IDX3_MAGIC, WAL_MAGIC, MANIFEST_MAGIC, CLUSTER_GRAPH_MAGIC];
        for (i, a) in magics.iter().enumerate() {
            for b in &magics[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn op_tags_are_dense_from_zero() {
        assert_eq!(
            [OP_QUERY, OP_STATS, OP_PRIME0, OP_EXPAND, OP_UPDATE],
            [0, 1, 2, 3, 4]
        );
    }
}
