//! # bp-cache — content-addressed on-disk result cache
//!
//! Every artifact the workspace emits is byte-deterministic by
//! construction, which makes simulation results *content-addressable*:
//! a cell's outcome is a pure function of the predictor's
//! round-trippable config text, the workload identity, the
//! instruction/warmup budgets, and the result-format schema version.
//! This crate provides the two primitives that turn that observation
//! into a cache:
//!
//! * [`CacheKey`] + [`fnv1a_128`] — a canonical key rendering and a
//!   hand-rolled 128-bit FNV-1a content hash over it. No OS entropy,
//!   no pointer bits, no platform-dependent hashers: the same key
//!   hashes to the same 32-hex-digit name on every run and every
//!   platform, so cache directories can be shared and diffed.
//! * [`CacheStore`] — an on-disk store of entries at
//!   `<root>/<2-hex-prefix>/<32-hex-hash>.json`. Each entry embeds the
//!   **full key**, not just its hash, rendered as a deterministic JSON
//!   envelope around an opaque payload.
//!
//! ## Verify-then-trust
//!
//! A cache must never turn a hash collision, a truncated write, or a
//! stray bit flip into a wrong result or a crash. [`CacheStore::load`]
//! therefore reconstructs the exact envelope prefix the key *would*
//! have written and requires the file to match it byte-for-byte (and
//! to end with the fixed envelope suffix). That single comparison is
//! simultaneously the collision check (the full key is in the prefix)
//! and the envelope-corruption check. Any mismatch is reported as a
//! plain miss — the caller recomputes and overwrites; nothing in this
//! crate panics or propagates a hard error on a bad entry. Corruption
//! *inside* the payload is the caller's to detect: payloads are
//! structured text that callers parse strictly, and a parse failure is
//! likewise treated as a miss.
//!
//! ## What a probe costs
//!
//! A warm report is a few dozen probes, so the key work per probe is a
//! real share of it. `load` and `save` render the key once: each string
//! field is JSON-escaped once, straight into the envelope prefix, and
//! the FNV-1a hash runs once over the canonical key text assembled from
//! those escaped slices. The file path and the prefix's `"hash"` field
//! both come from that one hash; `stats` and `gc` check each file the
//! same way. A hit hands back the payload cut out of the file's own
//! buffer. None of this changes a byte on disk: the hash, the file
//! names and the envelope are pinned by a golden test.
//!
//! ## Invalidation
//!
//! There is no time-based expiry and no mtime logic (this crate is
//! covered by the workspace determinism lint: no `HashMap`, no
//! `Instant`, no environment reads). Entries are invalidated by
//! *content*: changing the config text, workload, budgets, or bumping
//! [`CACHE_SCHEMA_VERSION`] changes the hash, so stale entries are
//! simply never addressed again. [`CacheStore::gc`] removes entries
//! that no current key can address (wrong schema version, malformed
//! envelope, hash/filename mismatch, leftover temp files).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::ops::Range;
use std::path::{Path, PathBuf};

/// Version stamp folded into every cache key hash and embedded in
/// every entry envelope.
///
/// Bump this whenever the payload encoding or the key anatomy changes
/// meaning: old entries stop being addressable (their hashes were
/// computed under the old version) and `gc` reclaims them.
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// 128-bit FNV-1a offset basis (the standard constant).
const FNV128_OFFSET_BASIS: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime (the standard constant).
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Fixed suffix closing every entry envelope. The payload sits between
/// the key-derived prefix and this suffix; [`CacheStore::load`] slices
/// it back out by byte offsets, so any payload round-trips exactly.
const ENTRY_SUFFIX: &str = "\n}\n";

/// Hash `bytes` with 128-bit FNV-1a.
///
/// Deterministic across runs and platforms by construction: plain
/// wrapping `u128` arithmetic over the byte stream, no seeds.
///
/// ```
/// // FNV-1a of the empty input is the offset basis.
/// assert_eq!(
///     bp_cache::fnv1a_128(b""),
///     0x6c62272e07bb014262b821756295c58d
/// );
/// ```
pub fn fnv1a_128(bytes: &[u8]) -> u128 {
    fnv1a_128_extend(FNV128_OFFSET_BASIS, bytes)
}

/// Continue an FNV-1a hash from state `hash` over `bytes`.
fn fnv1a_128_extend(mut hash: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        hash ^= b as u128;
        hash = hash.wrapping_mul(FNV128_PRIME);
    }
    hash
}

/// The canonical identity of one cached cell.
///
/// Two cells are the same cell if and only if every field here is
/// byte-equal. Worker counts, scheduling strategy, predictor-list
/// ordering, and wall-clock timings are deliberately *not* part of the
/// key: they cannot change a deterministic result.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    /// Payload-shape discriminator (e.g. `"sim"`, `"report"`,
    /// `"scenario"`), so differently-shaped results for the same
    /// (config, workload) pair never alias.
    pub kind: String,
    /// The predictor's round-trippable config text
    /// (`RegistryConfig::to_text()` — byte-stable by test).
    pub config: String,
    /// Workload identity: a benchmark name for grid/report cells, the
    /// canonical scenario spec text for scenario cells.
    pub workload: String,
    /// Simulated instruction budget.
    pub instructions: u64,
    /// Warmup instruction budget (0 where the cell has no warmup
    /// phase).
    pub warmup: u64,
}

impl CacheKey {
    /// Render the canonical key text that gets hashed.
    ///
    /// String fields are JSON-escaped, which makes the rendering
    /// injective (no field can smuggle a delimiter), and the schema
    /// version is folded in so bumps re-key everything.
    pub fn canonical_text(&self) -> String {
        let escaped = [&self.kind, &self.config, &self.workload].map(|field| {
            let mut out = String::with_capacity(field.len() + 2);
            push_json_string(&mut out, field);
            out
        });
        let mut out = String::with_capacity(escaped.iter().map(String::len).sum::<usize>() + 96);
        self.write_key_text(&mut out, escaped.each_ref().map(String::as_str));
        out
    }

    /// Write the canonical key text to `out`, given the three string
    /// fields (kind, config, workload) already JSON-escaped. The one
    /// definition of the key text: [`CacheKey::canonical_text`]
    /// collects it, and [`CacheKey::envelope`] hashes it as it goes.
    fn write_key_text(&self, out: &mut impl fmt::Write, [kind, config, workload]: [&str; 3]) {
        let _ = write!(
            out,
            "bp-cache-key v{CACHE_SCHEMA_VERSION}\nkind: {kind}\nconfig: {config}\n\
             workload: {workload}\ninstructions: {}\nwarmup: {}\n",
            self.instructions, self.warmup
        );
    }

    /// The key's 128-bit content hash.
    pub fn hash(&self) -> u128 {
        fnv1a_128(self.canonical_text().as_bytes())
    }

    /// The hash as 32 lowercase hex digits — the entry's file stem.
    pub fn hash_hex(&self) -> String {
        format!("{:032x}", self.hash())
    }

    /// Render this key once for the store: the deterministic envelope
    /// prefix (the entry file is exactly `prefix + payload + "\n}\n"`)
    /// with the key's hash embedded in it. Each string field is escaped
    /// once, straight into the prefix, and the hash runs over the
    /// canonical key text assembled from those escaped slices, so a
    /// probe or a store costs one escape pass and one hash.
    ///
    /// Embedding the full key (not just its hash) is what lets
    /// [`CacheStore::load`] detect hash collisions by a single byte
    /// comparison.
    fn envelope(&self) -> Envelope {
        let mut prefix =
            String::with_capacity(self.kind.len() + self.config.len() + self.workload.len() + 192);
        let _ = write!(
            prefix,
            "{{\n  \"bp-cache\": {CACHE_SCHEMA_VERSION},\n  \"hash\": \""
        );
        let hex_at = prefix.len();
        prefix.push_str(HEX_PLACEHOLDER);
        prefix.push_str("\",\n  \"kind\": ");
        let kind = push_json_string(&mut prefix, &self.kind);
        prefix.push_str(",\n  \"config\": ");
        let config = push_json_string(&mut prefix, &self.config);
        prefix.push_str(",\n  \"workload\": ");
        let workload = push_json_string(&mut prefix, &self.workload);
        let _ = write!(
            prefix,
            ",\n  \"instructions\": {},\n  \"warmup\": {},\n  \"payload\": ",
            self.instructions, self.warmup
        );

        let mut hash = Fnv128(FNV128_OFFSET_BASIS);
        self.write_key_text(&mut hash, [kind, config, workload].map(|r| &prefix[r]));
        let hex = format!("{:032x}", hash.0);
        prefix.replace_range(hex_at..hex_at + HEX_PLACEHOLDER.len(), &hex);
        Envelope { prefix, hex_at }
    }

    /// The envelope prefix alone: the entry file is exactly
    /// `prefix + payload + "\n}\n"`.
    #[cfg(test)]
    fn entry_prefix(&self) -> String {
        self.envelope().prefix
    }

    /// Render the complete entry file contents for `payload`.
    pub fn entry_text(&self, payload: &str) -> String {
        self.envelope().into_entry_text(payload)
    }
}

/// Stands in for the hash's 32 hex digits while the envelope prefix is
/// rendered; the digits overwrite it in place once the hash is known.
const HEX_PLACEHOLDER: &str = "00000000000000000000000000000000";

/// Streaming FNV-1a state: text written to it is hashed as it comes,
/// exactly as [`fnv1a_128`] hashes the concatenation.
struct Fnv128(u128);

impl fmt::Write for Fnv128 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a_128_extend(self.0, s.as_bytes());
        Ok(())
    }
}

/// One [`CacheKey`] rendered for the store: the entry's envelope
/// prefix, whose `"hash"` field holds the key's 32 hex digits.
struct Envelope {
    prefix: String,
    /// Byte offset of the hex digits inside `prefix`.
    hex_at: usize,
}

impl Envelope {
    /// The key's hash as 32 lowercase hex digits.
    fn hex(&self) -> &str {
        &self.prefix[self.hex_at..self.hex_at + HEX_PLACEHOLDER.len()]
    }

    /// Does `text` frame a payload as this key's entry: this exact
    /// prefix (the full key, hash included), then the fixed suffix?
    fn frames(&self, text: &str) -> bool {
        text.len() >= self.prefix.len() + ENTRY_SUFFIX.len()
            && text.starts_with(&self.prefix)
            && text.ends_with(ENTRY_SUFFIX)
    }

    /// The complete entry file contents for `payload`, built on the
    /// prefix's own buffer.
    fn into_entry_text(self, payload: &str) -> String {
        let mut out = self.prefix;
        out.reserve(payload.len() + ENTRY_SUFFIX.len());
        out.push_str(payload);
        out.push_str(ENTRY_SUFFIX);
        out
    }
}

/// Minimal JSON string escaper, byte-compatible with
/// `bp_components::config::json_string` (asserted by a dev-dependency
/// test). Duplicated here so the cache crate stays dependency-free.
/// Returns the byte range of the quoted, escaped string within `out`.
///
/// Every byte that needs escaping is ASCII, so the scan works on bytes
/// and copies each unescaped run whole (UTF-8 continuation bytes are
/// all `>= 0x80` and never split a run at a non-boundary).
fn push_json_string(out: &mut String, s: &str) -> Range<usize> {
    let start = out.len();
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
    start..out.len()
}

/// Inverse of [`push_json_string`] for envelope re-parsing during
/// `stats`/`gc`: reads one JSON string starting at `text[pos]`
/// (which must be `"`), returns the decoded value and the index just
/// past the closing quote. Returns `None` on any malformation.
fn read_json_string(text: &str, pos: usize) -> Option<(String, usize)> {
    let bytes = text.as_bytes();
    if *bytes.get(pos)? != b'"' {
        return None;
    }
    let mut out = String::new();
    let mut chars = text.get(pos + 1..)?.char_indices();
    while let Some((off, c)) = chars.next() {
        match c {
            '"' => return Some((out, pos + 1 + off + 1)),
            '\\' => match chars.next()?.1 {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut code: u32 = 0;
                    for _ in 0..4 {
                        let d = chars.next()?.1.to_digit(16)?;
                        code = code * 16 + d;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
    None
}

/// Read a decimal `u64` starting at `text[pos]`; returns the value and
/// the index just past the last digit.
fn read_u64(text: &str, pos: usize) -> Option<(u64, usize)> {
    let bytes = text.as_bytes();
    let mut end = pos;
    while bytes.get(end).is_some_and(|b| b.is_ascii_digit()) {
        end += 1;
    }
    if end == pos {
        return None;
    }
    let value = text.get(pos..end)?.parse().ok()?;
    Some((value, end))
}

/// Expect the literal `lit` at `text[pos]`; returns the index past it.
fn expect_lit(text: &str, pos: usize, lit: &str) -> Option<usize> {
    if text.get(pos..)?.starts_with(lit) {
        Some(pos + lit.len())
    } else {
        None
    }
}

/// The key of [`parse_entry`]'s verified envelope.
#[cfg(test)]
fn parse_entry_key(text: &str) -> Option<CacheKey> {
    parse_entry(text).map(|(key, _)| key)
}

/// Re-parse an entry envelope back into its [`CacheKey`] without
/// knowing the key in advance (the `stats`/`gc` path; `load` never
/// parses — it compares bytes against a known key).
///
/// Accepts only envelopes this crate could have written for the
/// *current* schema version: the parsed key's regenerated prefix must
/// byte-match the file, which re-verifies the embedded hash too. The
/// key's [`Envelope`] comes back with it, so the caller reads the hash
/// without rendering the key a second time.
fn parse_entry(text: &str) -> Option<(CacheKey, Envelope)> {
    let pos = expect_lit(text, 0, "{\n  \"bp-cache\": ")?;
    let (schema, pos) = read_u64(text, pos)?;
    if schema != CACHE_SCHEMA_VERSION as u64 {
        return None;
    }
    let pos = expect_lit(text, pos, ",\n  \"hash\": ")?;
    let (_hash_hex, pos) = read_json_string(text, pos)?;
    let pos = expect_lit(text, pos, ",\n  \"kind\": ")?;
    let (kind, pos) = read_json_string(text, pos)?;
    let pos = expect_lit(text, pos, ",\n  \"config\": ")?;
    let (config, pos) = read_json_string(text, pos)?;
    let pos = expect_lit(text, pos, ",\n  \"workload\": ")?;
    let (workload, pos) = read_json_string(text, pos)?;
    let pos = expect_lit(text, pos, ",\n  \"instructions\": ")?;
    let (instructions, pos) = read_u64(text, pos)?;
    let pos = expect_lit(text, pos, ",\n  \"warmup\": ")?;
    let (warmup, _pos) = read_u64(text, pos)?;
    let key = CacheKey {
        kind,
        config,
        workload,
        instructions,
        warmup,
    };
    // Regenerating the prefix re-checks field ordering, the embedded
    // hash, and every escaped byte in one comparison.
    let envelope = key.envelope();
    envelope.frames(text).then_some((key, envelope))
}

/// How a consumer participates in the cache. The policy layer lives
/// here, next to the store, so every consumer shares one vocabulary;
/// enforcement (gating reads and writes) is the consumer's job — the
/// store itself is policy-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CachePolicy {
    /// Cache disabled: no reads, no writes, no counting.
    Off,
    /// Probe before computing, write back what was computed.
    #[default]
    ReadWrite,
    /// Probe before computing, never write (e.g. a shared read-only
    /// cache directory).
    ReadOnly,
}

/// Aggregate counts from walking a cache directory, in deterministic
/// (sorted-path) order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries whose envelope verified against the current schema and
    /// whose filename matches their key hash.
    pub entries: u64,
    /// Total bytes across valid entries.
    pub bytes: u64,
    /// Files under the store's prefix directories that are not valid
    /// entries (old schema, corruption, leftover temp files).
    pub invalid: u64,
}

/// Result of a [`CacheStore::gc`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcOutcome {
    /// Valid entries left in place.
    pub kept: u64,
    /// Invalid files removed.
    pub removed: u64,
}

/// The on-disk store: entries live at
/// `<root>/<2-hex-prefix>/<32-hex-hash>.json`.
///
/// All failure modes on the read path degrade to a miss (`None`), and
/// writes go through a temp file + atomic rename so a crashed writer
/// can never leave a half-written file under an addressable name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheStore {
    root: PathBuf,
}

impl CacheStore {
    /// Open (lazily — no I/O happens here) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        CacheStore { root: root.into() }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path a `key`'s entry lives at (whether or not it exists).
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.path_of(&key.envelope())
    }

    /// The path of the entry `envelope` was rendered for.
    fn path_of(&self, envelope: &Envelope) -> PathBuf {
        let hex = envelope.hex();
        self.root.join(&hex[..2]).join(format!("{hex}.json"))
    }

    /// Look up `key`; returns the stored payload on a verified hit.
    ///
    /// Verify-then-trust: the file must byte-match the envelope prefix
    /// this exact key renders (full-key equality — detects collisions)
    /// and end with the envelope suffix (detects truncation). Anything
    /// else — missing file, unreadable file, mismatch — is `None`.
    /// The key is rendered and hashed once per probe, and the payload
    /// is cut out of the file's own buffer.
    pub fn load(&self, key: &CacheKey) -> Option<String> {
        let envelope = key.envelope();
        let mut text = fs::read_to_string(self.path_of(&envelope)).ok()?;
        if !envelope.frames(&text) {
            return None;
        }
        text.truncate(text.len() - ENTRY_SUFFIX.len());
        text.replace_range(..envelope.prefix.len(), "");
        Some(text)
    }

    /// Store `payload` under `key`, overwriting any existing entry.
    ///
    /// The entry is written to a `.tmp` sibling and renamed into
    /// place, so readers only ever observe complete envelopes under
    /// the addressable name. Errors are returned for the caller to
    /// ignore or report; a failed write never corrupts an entry.
    pub fn save(&self, key: &CacheKey, payload: &str) -> io::Result<()> {
        let envelope = key.envelope();
        let path = self.path_of(&envelope);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut tmp = path.clone();
        tmp.set_extension("json.tmp");
        fs::write(&tmp, envelope.into_entry_text(payload))?;
        fs::rename(&tmp, &path)
    }

    /// Walk the store in sorted order, classifying every file under
    /// the 2-hex prefix directories as a valid entry or not.
    ///
    /// `remove_invalid` is the `gc` mode: invalid files are deleted
    /// and prefix directories left empty are removed.
    fn walk(&self, remove_invalid: bool) -> CacheStats {
        let mut stats = CacheStats::default();
        for prefix_dir in sorted_children(&self.root, is_prefix_dir_name) {
            let mut survivors = 0u64;
            for file in sorted_children(&prefix_dir, |_| true) {
                if !file.is_file() {
                    survivors += 1;
                    continue;
                }
                if entry_file_is_valid(&file) {
                    stats.entries += 1;
                    stats.bytes += fs::metadata(&file).map(|m| m.len()).unwrap_or(0);
                    survivors += 1;
                } else {
                    stats.invalid += 1;
                    // An invalid file survives unless gc mode unlinks
                    // it; any survivor blocks directory pruning.
                    if !(remove_invalid && fs::remove_file(&file).is_ok()) {
                        survivors += 1;
                    }
                }
            }
            if remove_invalid && survivors == 0 {
                let _ = fs::remove_dir(&prefix_dir);
            }
        }
        stats
    }

    /// Count valid entries, their total bytes, and invalid files.
    pub fn stats(&self) -> CacheStats {
        self.walk(false)
    }

    /// Remove every file no current key can address — wrong schema
    /// version, corrupt envelope, filename/hash mismatch, leftover
    /// temp files — and prune emptied prefix directories.
    pub fn gc(&self) -> GcOutcome {
        let stats = self.walk(true);
        GcOutcome {
            kept: stats.entries,
            removed: stats.invalid,
        }
    }

    /// Remove **all** files under the store's prefix directories
    /// (valid or not) and the directories themselves. Returns the
    /// number of files removed. Files in the root that don't belong to
    /// the store layout are left untouched.
    pub fn clear(&self) -> u64 {
        let mut removed = 0u64;
        for prefix_dir in sorted_children(&self.root, is_prefix_dir_name) {
            for file in sorted_children(&prefix_dir, |_| true) {
                if file.is_file() && fs::remove_file(&file).is_ok() {
                    removed += 1;
                }
            }
            let _ = fs::remove_dir(&prefix_dir);
        }
        removed
    }
}

/// Is `name` a 2-lowercase-hex-digit store prefix directory name?
fn is_prefix_dir_name(name: &str) -> bool {
    name.len() == 2
        && name
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

/// Sorted child paths of `dir` whose (UTF-8) file name passes `keep`.
/// A missing or unreadable directory yields no children.
fn sorted_children(dir: &Path, keep: impl Fn(&str) -> bool) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            let name_ok = path.file_name().and_then(|n| n.to_str()).is_some_and(&keep);
            if name_ok {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Full validity check for one entry file: envelope parses under the
/// current schema, regenerated prefix byte-matches, and the filename
/// is `<hash_hex>.json` for the embedded key. One render and one hash
/// per file, as on the `load` path.
fn entry_file_is_valid(path: &Path) -> bool {
    let Ok(text) = fs::read_to_string(path) else {
        return false;
    };
    let Some((_, envelope)) = parse_entry(&text) else {
        return false;
    };
    let name = path.file_name().and_then(|n| n.to_str());
    name.and_then(|n| n.strip_suffix(".json")) == Some(envelope.hex())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bp-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn key(tag: &str) -> CacheKey {
        CacheKey {
            kind: "sim".to_string(),
            config: format!("{{\n  \"kind\": \"{tag}\"\n}}\n"),
            workload: "SPEC2K6-00".to_string(),
            instructions: 500_000,
            warmup: 100_000,
        }
    }

    #[test]
    fn hash_is_stable_across_runs() {
        // Golden value: guards the hash function and the canonical key
        // rendering against accidental change (which would silently
        // orphan every existing cache entry without a schema bump).
        let k = key("golden");
        assert_eq!(k.hash(), fnv1a_128(k.canonical_text().as_bytes()));
        let again = key("golden");
        assert_eq!(k.hash_hex(), again.hash_hex());
        assert_eq!(k.hash_hex().len(), 32);
        assert_eq!(fnv1a_128(b""), FNV128_OFFSET_BASIS);
        // A vector computable by hand from the FNV-1a definition.
        assert_eq!(
            fnv1a_128(b"a"),
            (FNV128_OFFSET_BASIS ^ b'a' as u128).wrapping_mul(FNV128_PRIME)
        );
    }

    #[test]
    fn every_key_field_changes_the_hash() {
        let base = key("base");
        let mut variants = vec![base.clone()];
        let mut k = base.clone();
        k.kind = "report".into();
        variants.push(k);
        let mut k = base.clone();
        k.config.push('x');
        variants.push(k);
        let mut k = base.clone();
        k.workload = "SPEC2K6-01".into();
        variants.push(k);
        let mut k = base.clone();
        k.instructions += 1;
        variants.push(k);
        let mut k = base.clone();
        k.warmup += 1;
        variants.push(k);
        let mut hexes: Vec<String> = variants.iter().map(|k| k.hash_hex()).collect();
        hexes.sort();
        hexes.dedup();
        assert_eq!(hexes.len(), variants.len(), "hash collision across fields");
    }

    #[test]
    fn escaper_matches_bp_components_json_string() {
        let samples = [
            "",
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\nreturn\rtab\t",
            "control\u{1}\u{1f}",
            "unicode \u{1F600} ok",
        ];
        for s in samples {
            let mut ours = String::new();
            push_json_string(&mut ours, s);
            assert_eq!(ours, bp_components::json_string(s), "{s:?}");
        }
    }

    #[test]
    fn json_string_round_trips_through_reader() {
        let samples = ["", "plain", "q\"b\\n\nr\rt\t", "ctl\u{2}", "☃ snow"];
        for s in samples {
            let mut rendered = String::new();
            push_json_string(&mut rendered, s);
            let (decoded, end) = read_json_string(&rendered, 0).expect("read back");
            assert_eq!(decoded, s);
            assert_eq!(end, rendered.len());
        }
    }

    #[test]
    fn save_load_round_trip_and_miss_on_other_key() {
        let dir = scratch_dir("roundtrip");
        let store = CacheStore::new(&dir);
        let k = key("roundtrip");
        assert_eq!(store.load(&k), None, "empty store must miss");
        store.save(&k, "{\"mpki\": 1}").expect("save");
        assert_eq!(store.load(&k).as_deref(), Some("{\"mpki\": 1}"));
        assert_eq!(store.load(&key("other")), None);
        // Overwrite wins.
        store.save(&k, "{\"mpki\": 2}").expect("resave");
        assert_eq!(store.load(&k).as_deref(), Some("{\"mpki\": 2}"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_under_right_name_is_a_miss() {
        // Simulates a full 128-bit hash collision: an entry stored at
        // this key's path but carrying a different embedded key must
        // read as a miss, never as the other key's payload.
        let dir = scratch_dir("collision");
        let store = CacheStore::new(&dir);
        let ours = key("ours");
        let theirs = key("theirs");
        let path = store.entry_path(&ours);
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, theirs.entry_text("{\"mpki\": 9}")).expect("plant");
        assert_eq!(store.load(&ours), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_bitflipped_entries_are_misses() {
        let dir = scratch_dir("corrupt");
        let store = CacheStore::new(&dir);
        let k = key("corrupt");
        store.save(&k, "{\"mpki\": 3}").expect("save");
        let path = store.entry_path(&k);
        let good = fs::read(&path).expect("read");
        // Truncation at every prefix length (sampled) must miss or, if
        // the cut lands inside the payload region, still verify the
        // suffix and miss.
        for cut in [0, 1, good.len() / 2, good.len() - 1] {
            fs::write(&path, &good[..cut]).expect("truncate");
            assert_eq!(store.load(&k), None, "cut at {cut}");
        }
        // A bit flip anywhere in the envelope prefix or suffix must
        // miss. (Payload flips are detected by the caller's parser.)
        let prefix_len = k.entry_prefix().len();
        for pos in [0usize, 5, prefix_len / 2, prefix_len - 1, good.len() - 1] {
            let mut bad = good.clone();
            bad[pos] ^= 0x01;
            fs::write(&path, &bad).expect("flip");
            assert_eq!(store.load(&k), None, "flip at {pos}");
        }
        // Restoring the good bytes restores the hit.
        fs::write(&path, &good).expect("restore");
        assert_eq!(store.load(&k).as_deref(), Some("{\"mpki\": 3}"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_gc_clear_lifecycle() {
        let dir = scratch_dir("lifecycle");
        let store = CacheStore::new(&dir);
        for i in 0..5 {
            store
                .save(&key(&format!("k{i}")), "{\"mpki\": 0}")
                .expect("save");
        }
        let clean = store.stats();
        assert_eq!(clean.entries, 5);
        assert_eq!(clean.invalid, 0);
        assert!(clean.bytes > 0);

        // Corrupt one entry, plant a leftover temp file and a foreign
        // file in the root; gc removes the first two, ignores the
        // third.
        let victim = store.entry_path(&key("k0"));
        fs::write(&victim, "not an envelope").expect("corrupt");
        let tmpdir = dir.join("ab");
        fs::create_dir_all(&tmpdir).expect("mkdir");
        fs::write(tmpdir.join("stray.json.tmp"), "half-written").expect("tmp");
        fs::write(dir.join("README"), "not part of the store").expect("foreign");

        let dirty = store.stats();
        assert_eq!(dirty.entries, 4);
        assert_eq!(dirty.invalid, 2);

        let gc = store.gc();
        assert_eq!(gc.kept, 4);
        assert_eq!(gc.removed, 2);
        let after = store.stats();
        assert_eq!((after.entries, after.invalid), (4, 0));
        assert!(!tmpdir.exists(), "emptied prefix dir is pruned");
        assert!(dir.join("README").exists(), "foreign files untouched");

        assert_eq!(store.clear(), 4);
        let empty = store.stats();
        assert_eq!((empty.entries, empty.invalid), (0, 0));
        assert!(dir.join("README").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_entry_key_rejects_other_schema_versions() {
        let k = key("schema");
        let good = k.entry_text("{}");
        assert_eq!(parse_entry_key(&good), Some(k));
        let bumped = good.replacen(
            &format!("\"bp-cache\": {CACHE_SCHEMA_VERSION}"),
            &format!("\"bp-cache\": {}", CACHE_SCHEMA_VERSION + 1),
            1,
        );
        assert_eq!(parse_entry_key(&bumped), None);
    }

    #[test]
    fn cache_format_is_pinned() {
        // Literals captured from the store before keys were rendered
        // once per probe: the hash, the file name and every envelope
        // byte must never move without a CACHE_SCHEMA_VERSION bump, or
        // every existing cache silently stops hitting. The config holds
        // each escape class: quote, backslash, newline, tab and a
        // non-ASCII character.
        let k = CacheKey {
            kind: "report".to_string(),
            config: "{\n\t\"kind\": \"tage \\\"q\\\" \\\\ é ☃\"\n}\n".to_string(),
            workload: "SPEC2K6-04".to_string(),
            instructions: 500_000,
            warmup: 100_000,
        };
        let hex = "24e085455269b10f5cbf5cdc06fcf17b";
        assert_eq!(k.hash_hex(), hex);
        assert_eq!(
            k.entry_text("{\n  \"mpki\": 1.5\n}"),
            "{\n  \"bp-cache\": 1,\n  \"hash\": \"24e085455269b10f5cbf5cdc06fcf17b\",\n  \
             \"kind\": \"report\",\n  \
             \"config\": \"{\\n\\t\\\"kind\\\": \\\"tage \\\\\\\"q\\\\\\\" \\\\\\\\ é ☃\\\"\\n}\\n\",\n  \
             \"workload\": \"SPEC2K6-04\",\n  \"instructions\": 500000,\n  \
             \"warmup\": 100000,\n  \"payload\": {\n  \"mpki\": 1.5\n}\n}\n"
        );
        let store = CacheStore::new("root");
        assert_eq!(
            store.entry_path(&k),
            Path::new("root").join("24").join(format!("{hex}.json"))
        );
    }

    #[test]
    fn envelope_hashes_the_canonical_text() {
        // The probe path hashes the key text assembled from the
        // envelope's escaped slices; it must agree with hashing the
        // canonical text whole, whatever the fields hold.
        let samples = [
            "",
            "plain",
            "q\"b\\n\nr\rt\t",
            "ctl\u{1}\u{1f}",
            "☃ snow \u{1F600}",
        ];
        for kind in samples {
            for config in samples {
                let k = CacheKey {
                    kind: kind.to_string(),
                    config: config.to_string(),
                    workload: "w\"\u{7}".to_string(),
                    instructions: 7,
                    warmup: 0,
                };
                let envelope = k.envelope();
                assert_eq!(envelope.hex(), k.hash_hex(), "{kind:?} {config:?}");
                assert_eq!(parse_entry_key(&k.entry_text("{}")), Some(k.clone()));
            }
        }
    }

    #[test]
    fn payload_round_trips_exactly_even_with_tricky_bytes() {
        let dir = scratch_dir("payload");
        let store = CacheStore::new(&dir);
        let k = key("payload");
        // Payloads containing things that look like the envelope
        // suffix must still slice back out exactly.
        let tricky = "{\n  \"x\": \"\n}\n\"\n}";
        store.save(&k, tricky).expect("save");
        assert_eq!(store.load(&k).as_deref(), Some(tricky));
        let _ = fs::remove_dir_all(&dir);
    }
}
