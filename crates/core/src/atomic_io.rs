//! Crash-safe file publication: temp file + fsync + atomic rename.
//!
//! The index file (`FPPVIDX3`) — like the WAL manifest, the checkpointed
//! graph and the shard map — is published through [`write_atomic`], so a
//! crash — at *any* byte offset of the write, including mid-`rename` —
//! either leaves the previous good file untouched or the complete new
//! file in place. A torn index
//! file can therefore never exist at the published path; the opener's
//! fail-closed validation only ever has to reject files that were
//! corrupted by something other than our own writer.
//!
//! The protocol:
//!
//! 1. create `<path>.tmp.<pid>` in the **same directory** (`rename(2)` is
//!    only atomic within a filesystem),
//! 2. stream the payload through a [`BufWriter`] into it,
//! 3. `flush` + `File::sync_all` (the data and its length are durable
//!    before the name ever points at them),
//! 4. `rename` over the destination (atomic replace on POSIX),
//! 5. best-effort `sync_all` of the parent directory so the *rename
//!    itself* survives a power cut.
//!
//! On any error the temp file is removed and the destination is left
//! exactly as it was.

use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// The temp-file sibling `write_atomic` stages `path`'s new contents in.
/// Exposed so crash-simulation tests can enumerate the protocol's
/// intermediate states.
pub fn temp_path_for(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Writes a file crash-safely: `write` streams the payload into a temp
/// file in `path`'s directory, which is fsynced and atomically renamed
/// over `path`. On error the temp file is cleaned up and any existing
/// file at `path` is left untouched.
pub fn write_atomic<P: AsRef<Path>>(
    path: P,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = temp_path_for(path);
    let result = (|| {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        let mut w = BufWriter::new(file);
        write(&mut w)?;
        w.flush()?;
        // Data must be durable before the rename makes it reachable:
        // otherwise a power cut could leave the *published* name pointing
        // at garbage — exactly the torn file the protocol exists to
        // prevent.
        w.get_ref().sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    // The rename is durable once the directory is. Failure here (e.g. a
    // filesystem that refuses O_DIRECTORY reads) costs durability of the
    // last rename on power loss, not consistency — ignore it.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        }) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("fastppv-atomic-{}-{name}", std::process::id()));
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn read(path: &Path) -> Vec<u8> {
        let mut buf = Vec::new();
        File::open(path).unwrap().read_to_end(&mut buf).unwrap();
        buf
    }

    #[test]
    fn writes_and_replaces() {
        let dir = temp_dir("basic");
        let path = dir.join("out.bin");
        write_atomic(&path, |w| w.write_all(b"first")).unwrap();
        assert_eq!(read(&path), b"first");
        write_atomic(&path, |w| w.write_all(b"second version")).unwrap();
        assert_eq!(read(&path), b"second version");
        assert!(!temp_path_for(&path).exists(), "temp file cleaned up");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_write_preserves_existing_file_and_cleans_temp() {
        let dir = temp_dir("fail");
        let path = dir.join("out.bin");
        write_atomic(&path, |w| w.write_all(b"good")).unwrap();
        let err = write_atomic(&path, |w| {
            w.write_all(b"partial new contents")?;
            Err(io::Error::other("simulated crash"))
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "simulated crash");
        assert_eq!(read(&path), b"good", "destination untouched on error");
        assert!(!temp_path_for(&path).exists(), "temp file cleaned up");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The crash-simulation contract: a crash at *every* truncation
    /// offset of the temp-file protocol (temp partially written, rename
    /// never issued) must leave an existing good file untouched — and a
    /// fresh `write_atomic` over the debris must still publish cleanly.
    #[test]
    fn truncate_at_every_offset_never_destroys_good_file() {
        let dir = temp_dir("truncate");
        let path = dir.join("out.bin");
        let good = b"the last durably published contents".to_vec();
        write_atomic(&path, |w| w.write_all(&good)).unwrap();
        let new: Vec<u8> = (0..=255u8).collect();
        for cut in 0..=new.len() {
            // Simulate the crash: the temp file holds a prefix of the new
            // payload and the process died before (or during) fsync —
            // no rename ever happened.
            fs::write(temp_path_for(&path), &new[..cut]).unwrap();
            assert_eq!(read(&path), good, "cut at {cut} must not touch the file");
            // Recovery: the next atomic write simply overwrites the
            // debris and publishes.
            write_atomic(&path, |w| w.write_all(&new)).unwrap();
            assert_eq!(read(&path), new);
            // Restore the baseline for the next offset.
            write_atomic(&path, |w| w.write_all(&good)).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
