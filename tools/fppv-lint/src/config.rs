//! What the rules check and where — the declared fail-closed surface,
//! the canonical constants module, the README drift table, and the
//! crates subject to the concurrency heuristics.
//!
//! [`Config::default_for`] encodes the real workspace's policy; tests
//! build custom configs to point the same rule code at fixture trees.

use std::path::PathBuf;

/// Which part of a fail-closed file the panic-freedom rule covers.
#[derive(Debug, Clone)]
pub enum Scope {
    WholeFile,
    /// Only the bodies of the named functions. A trailing `*` matches
    /// by prefix (`decode_*`).
    Functions(Vec<String>),
}

impl Scope {
    pub fn matches_fn(&self, name: &str) -> bool {
        match self {
            Scope::WholeFile => true,
            Scope::Functions(pats) => pats.iter().any(|p| match p.strip_suffix('*') {
                Some(prefix) => name.starts_with(prefix),
                None => name == p,
            }),
        }
    }
}

/// One fail-closed module: a path suffix plus the scope within it.
#[derive(Debug, Clone)]
pub struct FailClosed {
    pub path_suffix: String,
    pub scope: Scope,
}

/// How a registry constant's value is rendered into its README pattern.
#[derive(Debug, Clone, Copy)]
pub enum Render {
    /// Byte-string magics as ASCII (`FPPVWAL1`).
    Ascii,
    /// Integers in decimal.
    Dec,
    /// Integers as uppercase hex without underscores (`46505056`).
    Hex,
}

/// One doc-drift check: the README must contain `template` with `{}`
/// replaced by the registry constant's rendered value.
#[derive(Debug, Clone)]
pub struct ReadmeCheck {
    pub const_name: String,
    pub template: String,
    pub render: Render,
}

#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root; all paths below are relative to it.
    pub root: PathBuf,
    /// The canonical constants module (rule `const-registry`).
    pub registry_path: String,
    pub readme_path: String,
    pub readme_checks: Vec<ReadmeCheck>,
    pub fail_closed: Vec<FailClosed>,
    /// Directory prefixes whose files get the lock-across-I/O check.
    pub lock_dirs: Vec<String>,
    /// Path suffixes of files holding wire/file-format codecs (rule
    /// `time-in-wire`).
    pub wire_files: Vec<String>,
}

fn check(name: &str, template: &str, render: Render) -> ReadmeCheck {
    ReadmeCheck {
        const_name: name.to_string(),
        template: template.to_string(),
        render,
    }
}

impl Config {
    /// The real workspace policy, rooted at `root`.
    pub fn default_for(root: impl Into<PathBuf>) -> Self {
        let fns = |names: &[&str]| Scope::Functions(names.iter().map(|s| s.to_string()).collect());
        Config {
            root: root.into(),
            registry_path: "crates/core/src/protocol_consts.rs".into(),
            readme_path: "README.md".into(),
            readme_checks: vec![
                check("NET_MAGIC", "0x{}", Render::Hex),
                check("PROTOCOL_VERSION", "version-{} frames", Render::Dec),
                check("IDX3_MAGIC", "{}", Render::Ascii),
                check("IDX3_VERSION", "u32 version={}", Render::Dec),
                check("WAL_MAGIC", "{}", Render::Ascii),
                check("WAL_VERSION", "version u32 (={})", Render::Dec),
                check("MANIFEST_MAGIC", "{}", Render::Ascii),
                check("OP_QUERY", "`OP_QUERY`={}", Render::Dec),
                check("OP_STATS", "`OP_STATS`={}", Render::Dec),
                check("OP_PRIME0", "`OP_PRIME0`={}", Render::Dec),
                check("OP_EXPAND", "`OP_EXPAND`={}", Render::Dec),
                check("OP_UPDATE", "`OP_UPDATE`={}", Render::Dec),
            ],
            fail_closed: vec![
                FailClosed {
                    path_suffix: "crates/core/src/mapfile.rs".into(),
                    scope: Scope::WholeFile,
                },
                FailClosed {
                    path_suffix: "crates/core/src/wal.rs".into(),
                    scope: Scope::WholeFile,
                },
                FailClosed {
                    path_suffix: "crates/core/src/atomic_io.rs".into(),
                    scope: Scope::WholeFile,
                },
                // Index open: a corrupt or foreign file must be rejected
                // with a typed `OpenError` before any slice of it is
                // formed; nothing is decoded after open, so there is no
                // query-time read left to fail.
                FailClosed {
                    path_suffix: "crates/core/src/index.rs".into(),
                    scope: fns(&[
                        "open",
                        "from_backing",
                        "compute",
                        "pad8",
                        "take",
                        "u32",
                        "u64",
                        "f64",
                    ]),
                },
                // Frame decode: a malformed frame must produce a protocol
                // error on that connection, never a server panic — the
                // codec's decoders and payload reader...
                FailClosed {
                    path_suffix: "crates/server/src/net/wire.rs".into(),
                    scope: fns(&[
                        "decode_*",
                        "take_entry_list",
                        "take",
                        "finish",
                        "u8",
                        "u16",
                        "u32",
                        "u64",
                        "f64",
                    ]),
                },
                // ...the frame readers, and the shard's sub-op handlers,
                // which take decoded wire input straight into the engine:
                // a bad id, an unsorted sublist or a missing hub is a typed
                // `SubReply::Error`, never a shard panic; an update batch
                // naming an absent edge is refused the same way.
                FailClosed {
                    path_suffix: "crates/server/src/net/conn.rs".into(),
                    scope: fns(&[
                        "read_frame",
                        "read_frame_stalling",
                        "fill",
                        "read_some",
                        "prime0",
                        "expand",
                        "sub_request",
                        "check_sublist",
                        "prepare_from_events",
                    ]),
                },
                // Clustered-graph open: a corrupt `FPPVCLG1` file is a
                // typed `InvalidData` before anything is sized from it, and
                // a file that opens holds no id a probe could index out of
                // bounds with.
                FailClosed {
                    path_suffix: "crates/cluster/src/store.rs".into(),
                    scope: fns(&["open", "parse", "load_cluster", "u32_at", "u64_at"]),
                },
                // Router read paths: a bad shard id or a dead backend is
                // a routing error, never a router panic.
                FailClosed {
                    path_suffix: "crates/router/src/backend.rs".into(),
                    scope: fns(&[
                        "prime0",
                        "expand",
                        "probe",
                        "discover_hello",
                        "single_attempt",
                        "expand_all",
                        "scatter",
                        "gather_inline",
                        "inline_failure",
                        "race",
                        "take_pooled",
                        "return_client",
                        "spawn_wait",
                        "spawn_attempt",
                        "check_alive",
                    ]),
                },
            ],
            lock_dirs: vec!["crates/server/src".into(), "crates/router/src".into()],
            wire_files: vec![
                "crates/server/src/net/wire.rs".into(),
                "crates/server/src/net/conn.rs".into(),
                "crates/core/src/wal.rs".into(),
                "crates/cluster/src/store.rs".into(),
                "crates/cluster/src/shard.rs".into(),
            ],
        }
    }
}
