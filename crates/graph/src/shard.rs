//! The `.sbps` binary edge-shard format and the shard planner.
//!
//! Paper-scale graphs cannot be parsed from one text file on every rank —
//! the whole point of distributed SBP is that no machine holds the whole
//! graph. This module defines a compact, self-describing binary shard
//! format plus the planner that splits a graph into per-rank shards; the
//! distributed loader in `sbp-dist` then gives each rank exactly its own
//! shard plus the cut edges its peers exchange with it.
//!
//! ## Format (version 1)
//!
//! A shard holds every out-edge of the vertices one rank *owns* under an
//! [`OwnershipStrategy`] (an edge lives in the shard of its **source**
//! vertex's owner). All integers are LEB128 varints from [`crate::varint`]:
//!
//! ```text
//! magic   "SBPS"                      4 bytes
//! version u8 (= 1)
//! strategy u8                         OwnershipStrategy::code
//! varint  num_vertices                global vertex count
//! varint  shard_index
//! varint  shard_count
//! ids     owned vertex list           count-prefixed ascending delta run
//! varint  edge_count
//! edges   sorted by (src, dst), deduped, delta-encoded — a pair run
//!         (crate::varint::write_pair) with a weight after each pair:
//!           varint src_delta          src − previous src (0 for same run)
//!           varint dst or dst_delta   absolute when the src changed,
//!                                     (dst − prev_dst − 1) inside a run
//!           varint weight − 1         weights are ≥ 1
//! varint  checksum                    order-sensitive mix of the edges
//! ```
//!
//! Delta + varint keeps a sorted shard close to entropy: on the paper's
//! synthetic graphs a shard costs ~2–3 bytes/edge versus 16–24 for raw
//! fixed-width triples. Readers are strict — bad magic, truncation, wrong
//! version, unowned sources, out-of-range endpoints, order violations, and
//! checksum mismatches are all [`ShardError`]s, never silent corruption.

use crate::ownership::OwnershipStrategy;
use crate::varint::{
    read_ascending_ids, read_pair, read_u64, write_ascending_ids, write_pair, write_u64, PairError,
};
use crate::{add_edge_weight, Graph, Vertex, Weight, MAX_TOTAL_EDGE_WEIGHT};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// File magic of a `.sbps` shard.
pub const SHARD_MAGIC: [u8; 4] = *b"SBPS";
/// Current format version.
pub const SHARD_VERSION: u8 = 1;
/// Extension used by shard files and the directory scanner.
pub const SHARD_EXTENSION: &str = "sbps";

/// Why a shard could not be decoded.
#[derive(Debug)]
pub enum ShardError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem in the byte stream.
    Malformed(String),
    /// The directory exists but holds no `.sbps` shards — almost always a
    /// wrong path or a sharding run that never happened, so it gets its
    /// own variant (with the offending path) instead of masquerading as a
    /// malformed shard.
    EmptyShardDir(PathBuf),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "io error: {e}"),
            ShardError::Malformed(reason) => write!(f, "malformed shard: {reason}"),
            ShardError::EmptyShardDir(dir) => write!(
                f,
                "no .{SHARD_EXTENSION} shards in {} — is this really a shard directory?",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

fn malformed(reason: impl Into<String>) -> ShardError {
    ShardError::Malformed(reason.into())
}

/// `Σ weights` of (part of) a sharded graph, or the error for one heavier
/// than [`MAX_TOTAL_EDGE_WEIGHT`]: a shard set is an input door like a
/// file reader, so its weight limit is a typed error, not the panic
/// [`Graph::from_edges`] would raise.
pub fn total_weight(weights: impl IntoIterator<Item = Weight>) -> Result<Weight, ShardError> {
    weights
        .into_iter()
        .try_fold(0, add_edge_weight)
        .ok_or_else(|| {
            malformed(format!(
                "total edge weight passes the limit {MAX_TOTAL_EDGE_WEIGHT}"
            ))
        })
}

/// Order-sensitive checksum over the edge stream (FxHash-style mixing);
/// cheap enough to always verify, strong enough to catch torn writes.
fn mix_edge(acc: u64, s: Vertex, d: Vertex, w: Weight) -> u64 {
    let mut z = acc
        .rotate_left(5)
        .wrapping_add(u64::from(s))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= u64::from(d).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(w as u64).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decoded header of one shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardHeader {
    /// Global vertex count of the sharded graph.
    pub num_vertices: usize,
    /// This shard's index, `0..shard_count`.
    pub shard_index: usize,
    /// Total shards the graph was split into.
    pub shard_count: usize,
    /// Ownership scheme the planner used.
    pub strategy: OwnershipStrategy,
}

/// Incremental writer for one shard: feed sorted, deduped out-edges of the
/// owned vertex set, then [`ShardWriter::finish`] (or
/// [`ShardWriter::write_to`] a file).
pub struct ShardWriter {
    buf: Vec<u8>,
    num_vertices: usize,
    owned_mask: Vec<bool>,
    edge_count: u64,
    prev: Option<(Vertex, Vertex)>,
    checksum: u64,
    /// Patched into the stream at finish (varint, so edges are buffered
    /// separately from the header).
    edges_buf: Vec<u8>,
}

impl ShardWriter {
    /// Starts a shard for `owned` (ascending, deduped) vertices of a
    /// `num_vertices`-vertex graph.
    ///
    /// # Panics
    /// Panics if `shard_index >= shard_count` or `owned` is not strictly
    /// ascending / in range.
    pub fn new(
        num_vertices: usize,
        shard_index: usize,
        shard_count: usize,
        strategy: OwnershipStrategy,
        owned: &[Vertex],
    ) -> Self {
        assert!(shard_index < shard_count, "shard index out of range");
        let mut owned_mask = vec![false; num_vertices];
        let mut prev: Option<Vertex> = None;
        for &v in owned {
            assert!((v as usize) < num_vertices, "owned vertex {v} out of range");
            assert!(prev.is_none_or(|p| p < v), "owned list must be ascending");
            owned_mask[v as usize] = true;
            prev = Some(v);
        }
        let mut buf = Vec::with_capacity(64 + owned.len());
        buf.extend_from_slice(&SHARD_MAGIC);
        buf.push(SHARD_VERSION);
        buf.push(strategy.code());
        write_u64(&mut buf, num_vertices as u64);
        write_u64(&mut buf, shard_index as u64);
        write_u64(&mut buf, shard_count as u64);
        write_ascending_ids(&mut buf, owned);
        ShardWriter {
            buf,
            num_vertices,
            owned_mask,
            edge_count: 0,
            prev: None,
            checksum: 0,
            edges_buf: Vec::new(),
        }
    }

    /// Appends one edge. Edges must arrive sorted by `(src, dst)` with no
    /// duplicates, `src` owned by this shard, and `weight >= 1`.
    ///
    /// # Panics
    /// Panics on any ordering/ownership/range violation — the writer is
    /// only ever driven by the planner or by code replicating it, where a
    /// violation is a bug, not input error.
    pub fn push_edge(&mut self, src: Vertex, dst: Vertex, weight: Weight) {
        assert!(
            (src as usize) < self.num_vertices && (dst as usize) < self.num_vertices,
            "edge ({src}, {dst}) out of range"
        );
        assert!(
            self.owned_mask[src as usize],
            "src {src} not owned by shard"
        );
        assert!(weight >= 1, "edge ({src}, {dst}) has weight {weight} < 1");
        if let Some((ps, pd)) = self.prev {
            assert!(
                (src, dst) > (ps, pd),
                "edges must be sorted and deduped: ({src},{dst}) after ({ps},{pd})"
            );
        }
        write_pair(&mut self.edges_buf, self.prev, (src, dst));
        write_u64(&mut self.edges_buf, (weight - 1) as u64);
        self.checksum = mix_edge(self.checksum, src, dst, weight);
        self.edge_count += 1;
        self.prev = Some((src, dst));
    }

    /// Finalizes the shard and returns the encoded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        write_u64(&mut self.buf, self.edge_count);
        self.buf.extend_from_slice(&self.edges_buf);
        write_u64(&mut self.buf, self.checksum);
        self.buf
    }

    /// Finalizes the shard and writes it to `path`.
    pub fn write_to(self, path: &Path) -> std::io::Result<()> {
        let bytes = self.finish();
        let mut f = std::fs::File::create(path)?;
        f.write_all(&bytes)
    }
}

/// Eagerly decoded shard: header, owned vertex list, and edges.
///
/// [`ShardReader::open`] reads and verifies a whole file; the edge list is
/// materialized because the distributed loader immediately buckets it for
/// the cut-edge exchange anyway. The decoded edges are sorted by
/// `(src, dst)` and deduped by construction of the format.
#[derive(Clone, Debug)]
pub struct ShardReader {
    header: ShardHeader,
    owned: Vec<Vertex>,
    edges: Vec<(Vertex, Vertex, Weight)>,
}

impl ShardReader {
    /// Reads the shard at `path` whole and verifies it. Decoding is
    /// eager-copy, so the file's bytes are dropped before this returns
    /// and a later change to the file cannot touch the constructed reader.
    pub fn open(path: &Path) -> Result<Self, ShardError> {
        Self::decode(&std::fs::read(path)?)
    }

    /// Decodes the fixed-size prefix (everything before the owned vertex
    /// list); returns the header and the read position.
    fn decode_prefix(bytes: &[u8]) -> Result<(ShardHeader, usize), ShardError> {
        if bytes.len() < 6 || bytes[..4] != SHARD_MAGIC {
            return Err(malformed("bad magic (not an .sbps shard)"));
        }
        if bytes[4] != SHARD_VERSION {
            return Err(malformed(format!(
                "unsupported version {} (expected {SHARD_VERSION})",
                bytes[4]
            )));
        }
        let strategy = OwnershipStrategy::from_code(bytes[5])
            .ok_or_else(|| malformed(format!("unknown ownership strategy code {}", bytes[5])))?;
        let mut pos = 6usize;
        let next =
            |what: &str, pos: &mut usize| read_u64(bytes, pos).ok_or_else(|| malformed(what));
        let num_vertices = next("truncated num_vertices", &mut pos)?;
        // Vertex ids are u32, so a larger count can only come from a
        // corrupt or crafted header — reject it *before* any
        // header-sized allocation happens downstream.
        if num_vertices > u64::from(u32::MAX) + 1 {
            return Err(malformed(format!(
                "vertex count {num_vertices} exceeds the u32 id space"
            )));
        }
        let num_vertices = num_vertices as usize;
        let shard_index = next("truncated shard_index", &mut pos)? as usize;
        let shard_count = next("truncated shard_count", &mut pos)? as usize;
        if shard_count == 0 || shard_index >= shard_count {
            return Err(malformed(format!(
                "shard index {shard_index} out of range for {shard_count} shards"
            )));
        }
        Ok((
            ShardHeader {
                num_vertices,
                shard_index,
                shard_count,
                strategy,
            },
            pos,
        ))
    }

    /// Reads and decodes **only the header** of the shard at `path` — a
    /// few dozen bytes of I/O regardless of shard size. Pre-flight
    /// validation must not pay for a full edge decode.
    pub fn read_header(path: &Path) -> Result<ShardHeader, ShardError> {
        use std::io::Read as _;
        // The prefix is ≤ 6 + 3 varints ≤ 36 bytes; 64 gives slack.
        let mut buf = [0u8; 64];
        let mut f = std::fs::File::open(path)?;
        let mut filled = 0usize;
        loop {
            let n = f.read(&mut buf[filled..])?;
            if n == 0 {
                break;
            }
            filled += n;
            if filled == buf.len() {
                break;
            }
        }
        Self::decode_prefix(&buf[..filled]).map(|(header, _)| header)
    }

    /// Decodes a shard from bytes, verifying structure and checksum.
    pub fn decode(bytes: &[u8]) -> Result<Self, ShardError> {
        let (header, mut pos) = Self::decode_prefix(bytes)?;
        let ShardHeader {
            num_vertices,
            shard_index,
            shard_count,
            strategy,
        } = header;
        let next =
            |what: &str, pos: &mut usize| read_u64(bytes, pos).ok_or_else(|| malformed(what));
        let owned = read_ascending_ids(bytes, &mut pos)
            .ok_or_else(|| malformed("truncated owned vertex list"))?;
        if owned.last().is_some_and(|&v| v as usize >= num_vertices) {
            return Err(malformed("owned vertex out of range"));
        }
        let edge_count = next("truncated edge_count", &mut pos)? as usize;
        // Every edge costs at least 3 varint bytes (src delta, dst,
        // weight), so a declared count the remaining payload could never
        // encode is a crafted length — reject it *before* sizing the edge
        // vector, so a few hostile header bytes cannot demand a
        // multi-gigabyte allocation.
        if edge_count > bytes.len().saturating_sub(pos) / 3 {
            return Err(malformed(format!(
                "edge count {edge_count} exceeds what the remaining {} payload bytes could hold",
                bytes.len() - pos
            )));
        }
        let mut edges = Vec::with_capacity(edge_count);
        let mut prev: Option<(Vertex, Vertex)> = None;
        let mut checksum = 0u64;
        // Ownership is checked against the sorted owned list (memoized —
        // the stream is src-sorted) rather than a num_vertices-sized
        // mask: the header's vertex count is attacker-controlled, and the
        // mask would let a 40-byte file allocate gigabytes.
        let mut last_owned: Option<Vertex> = None;
        for i in 0..edge_count {
            let (src, dst) = read_pair(bytes, &mut pos, prev).map_err(|e| match e {
                PairError::Truncated => malformed(format!("truncated edge {i}")),
                PairError::RowOverflow | PairError::ColOverflow => {
                    malformed(format!("edge {i} delta overflow"))
                }
            })?;
            let w_raw = next("truncated edge weight", &mut pos)?;
            if src >= num_vertices as u64 || dst >= num_vertices as u64 {
                return Err(malformed(format!("edge {i} endpoint out of range")));
            }
            let (src, dst) = (src as Vertex, dst as Vertex);
            if last_owned != Some(src) {
                if owned.binary_search(&src).is_err() {
                    return Err(malformed(format!("edge {i} src {src} not owned by shard")));
                }
                last_owned = Some(src);
            }
            let weight = w_raw
                .checked_add(1)
                .filter(|&w| w <= i64::MAX as u64)
                .ok_or_else(|| malformed(format!("edge {i} weight overflow")))?
                as Weight;
            checksum = mix_edge(checksum, src, dst, weight);
            edges.push((src, dst, weight));
            prev = Some((src, dst));
        }
        let stored = next("truncated checksum", &mut pos)?;
        if stored != checksum {
            return Err(malformed("checksum mismatch (torn or corrupt shard)"));
        }
        if pos != bytes.len() {
            return Err(malformed(format!(
                "{} trailing bytes after checksum",
                bytes.len() - pos
            )));
        }
        Ok(ShardReader {
            header: ShardHeader {
                num_vertices,
                shard_index,
                shard_count,
                strategy,
            },
            owned,
            edges,
        })
    }

    /// The decoded header.
    pub fn header(&self) -> &ShardHeader {
        &self.header
    }

    /// The owned vertex list (ascending).
    pub fn owned(&self) -> &[Vertex] {
        &self.owned
    }

    /// The decoded edges, sorted by `(src, dst)`.
    pub fn edges(&self) -> &[(Vertex, Vertex, Weight)] {
        &self.edges
    }

    /// Consumes the reader, returning `(header, owned, edges)`.
    pub fn into_parts(self) -> (ShardHeader, Vec<Vertex>, Vec<(Vertex, Vertex, Weight)>) {
        (self.header, self.owned, self.edges)
    }
}

/// A sharding plan: which rank owns which vertices.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Global vertex count.
    pub num_vertices: usize,
    /// Ownership scheme the plan was computed under.
    pub strategy: OwnershipStrategy,
    /// Per-shard owned vertex lists (ascending, a partition of `0..V`).
    pub owned: Vec<Vec<Vertex>>,
}

impl ShardPlan {
    /// Plans `shard_count` shards of `graph` under `strategy`.
    pub fn from_graph(graph: &Graph, shard_count: usize, strategy: OwnershipStrategy) -> Self {
        assert!(shard_count > 0, "need at least one shard");
        ShardPlan {
            num_vertices: graph.num_vertices(),
            strategy,
            owned: strategy.partition(graph, shard_count),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.owned.len()
    }

    /// Owner shard of vertex `v`.
    pub fn owner_of(&self) -> Vec<u32> {
        let mut owner = vec![u32::MAX; self.num_vertices];
        for (shard, part) in self.owned.iter().enumerate() {
            for &v in part {
                owner[v as usize] = shard as u32;
            }
        }
        debug_assert!(owner.iter().all(|&o| o != u32::MAX));
        owner
    }

    /// Writes every shard of `graph` into `dir` (created if missing) as
    /// `part-IIIII-of-NNNNN.sbps`; returns the paths in shard order.
    ///
    /// Each shard receives the out-edges of its owned vertices, already
    /// sorted because [`Graph::arcs`] streams the CSR in `(src, dst)`
    /// order.
    pub fn write_graph(&self, graph: &Graph, dir: &Path) -> Result<Vec<PathBuf>, ShardError> {
        assert_eq!(
            graph.num_vertices(),
            self.num_vertices,
            "plan was made for a different graph"
        );
        std::fs::create_dir_all(dir)?;
        let n = self.shard_count();
        let mut writers: Vec<ShardWriter> = (0..n)
            .map(|i| ShardWriter::new(self.num_vertices, i, n, self.strategy, &self.owned[i]))
            .collect();
        let owner = self.owner_of();
        for (s, d, w) in graph.arcs() {
            writers[owner[s as usize] as usize].push_edge(s, d, w);
        }
        let mut paths = Vec::with_capacity(n);
        for (i, writer) in writers.into_iter().enumerate() {
            let path = dir.join(shard_file_name(i, n));
            writer.write_to(&path)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

/// Canonical shard file name, sortable by shard index.
pub fn shard_file_name(index: usize, count: usize) -> String {
    format!("part-{index:05}-of-{count:05}.{SHARD_EXTENSION}")
}

/// Convenience: plan + write in one call. Returns the shard paths.
pub fn shard_graph(
    graph: &Graph,
    dir: &Path,
    shard_count: usize,
    strategy: OwnershipStrategy,
) -> Result<Vec<PathBuf>, ShardError> {
    ShardPlan::from_graph(graph, shard_count, strategy).write_graph(graph, dir)
}

/// Lists a shard directory: all `.sbps` files sorted by name (the
/// canonical names sort by shard index). A directory with no shards is
/// [`ShardError::EmptyShardDir`], so callers (and CLI users) can tell a
/// mistyped path from actual shard corruption.
pub fn shard_paths(dir: &Path) -> Result<Vec<PathBuf>, ShardError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == SHARD_EXTENSION))
        .collect();
    if paths.is_empty() {
        return Err(ShardError::EmptyShardDir(dir.to_path_buf()));
    }
    paths.sort();
    Ok(paths)
}

/// Reads **every** shard's header in `dir` and checks the directory is
/// coherent: the expected count is present, shard `i` really is shard
/// `i of n`, and all shards agree on the vertex count and ownership
/// strategy. Header-only I/O — a few dozen bytes per shard, never an
/// edge decode — so callers can validate before spawning a cluster at
/// any shard size, and an incoherent directory fails here with a clear
/// error instead of panicking a rank mid-load. Returns shard 0's
/// header, canonical for the whole directory.
pub fn validate_shard_dir(dir: &Path) -> Result<ShardHeader, ShardError> {
    let paths = shard_paths(dir)?;
    let first = ShardReader::read_header(&paths[0])?;
    if first.shard_index != 0 {
        return Err(malformed(format!(
            "{} claims shard {}/{}, expected 0/{}",
            paths[0].display(),
            first.shard_index,
            first.shard_count,
            first.shard_count
        )));
    }
    if paths.len() != first.shard_count {
        return Err(malformed(format!(
            "directory holds {} shards but headers promise {}",
            paths.len(),
            first.shard_count
        )));
    }
    for (i, path) in paths.iter().enumerate().skip(1) {
        let header = ShardReader::read_header(path)?;
        if header.shard_index != i || header.shard_count != first.shard_count {
            return Err(malformed(format!(
                "{} claims shard {}/{}, expected {}/{}",
                path.display(),
                header.shard_index,
                header.shard_count,
                i,
                first.shard_count
            )));
        }
        if header.num_vertices != first.num_vertices || header.strategy != first.strategy {
            return Err(malformed(format!(
                "{} disagrees with shard 0 on vertex count or ownership strategy",
                path.display()
            )));
        }
    }
    Ok(first)
}

/// Reassembles a full [`Graph`] from every shard in `dir` — the
/// single-node escape hatch (and the round-trip test oracle). The
/// distributed loader in `sbp-dist` is the scalable path.
pub fn unshard_graph(dir: &Path) -> Result<Graph, ShardError> {
    let paths = shard_paths(dir)?;
    let mut all_edges = Vec::new();
    let mut num_vertices = None;
    let mut strategy = None;
    let mut owned_seen: Vec<bool> = Vec::new();
    for (i, path) in paths.iter().enumerate() {
        let shard = ShardReader::open(path)?;
        if shard.header().shard_count != paths.len() || shard.header().shard_index != i {
            return Err(malformed(format!(
                "{} is shard {}/{} but directory holds {} shards",
                path.display(),
                shard.header().shard_index,
                shard.header().shard_count,
                paths.len()
            )));
        }
        match num_vertices {
            None => {
                num_vertices = Some(shard.header().num_vertices);
                owned_seen = vec![false; shard.header().num_vertices];
            }
            Some(v) if v != shard.header().num_vertices => {
                return Err(malformed("shards disagree on the vertex count"))
            }
            _ => {}
        }
        match strategy {
            None => strategy = Some(shard.header().strategy),
            Some(s) if s != shard.header().strategy => {
                return Err(malformed("shards disagree on the ownership strategy"))
            }
            _ => {}
        }
        // Disjointness: a vertex owned by two shards would contribute its
        // out-arcs twice and `Graph::from_edges` would silently sum the
        // duplicate weights — reject mixed directories instead.
        for &v in shard.owned() {
            if owned_seen[v as usize] {
                return Err(malformed(format!("vertex {v} owned by two shards")));
            }
            owned_seen[v as usize] = true;
        }
        all_edges.extend_from_slice(shard.edges());
    }
    total_weight(all_edges.iter().map(|e| e.2))?;
    Ok(Graph::from_edges(num_vertices.unwrap_or(0), all_edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::two_cliques;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbps_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn writer_reader_roundtrip() {
        let owned = vec![0u32, 2, 4];
        let mut w = ShardWriter::new(6, 1, 3, OwnershipStrategy::Modulo, &owned);
        w.push_edge(0, 5, 1);
        w.push_edge(2, 0, 7);
        w.push_edge(2, 3, 2);
        w.push_edge(4, 4, 1);
        let bytes = w.finish();
        let r = ShardReader::decode(&bytes).unwrap();
        assert_eq!(r.header().num_vertices, 6);
        assert_eq!(r.header().shard_index, 1);
        assert_eq!(r.header().shard_count, 3);
        assert_eq!(r.header().strategy, OwnershipStrategy::Modulo);
        assert_eq!(r.owned(), &owned[..]);
        assert_eq!(r.edges(), &[(0, 5, 1), (2, 0, 7), (2, 3, 2), (4, 4, 1)]);
    }

    #[test]
    fn empty_shard_roundtrip() {
        let bytes = ShardWriter::new(4, 0, 2, OwnershipStrategy::SortedBalanced, &[1, 3]).finish();
        let r = ShardReader::decode(&bytes).unwrap();
        assert!(r.edges().is_empty());
        assert_eq!(r.owned(), &[1, 3]);
    }

    #[test]
    fn compression_beats_raw_triples() {
        let g = two_cliques(16);
        let dir = temp_dir("ratio");
        let paths = shard_graph(&g, &dir, 1, OwnershipStrategy::Modulo).unwrap();
        let encoded = std::fs::metadata(&paths[0]).unwrap().len() as usize;
        let raw = g.num_arcs() * std::mem::size_of::<(Vertex, Vertex, Weight)>();
        assert!(
            encoded * 2 < raw,
            "shard {encoded}B not < half of raw {raw}B"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_rejects_corruption() {
        let mut w = ShardWriter::new(4, 0, 1, OwnershipStrategy::Modulo, &[0, 1, 2, 3]);
        w.push_edge(0, 1, 1);
        w.push_edge(2, 3, 5);
        let good = w.finish();
        assert!(ShardReader::decode(&good).is_ok());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(ShardReader::decode(&bad).is_err());
        // Bad version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(ShardReader::decode(&bad).is_err());
        // Bad strategy code.
        let mut bad = good.clone();
        bad[5] = 7;
        assert!(ShardReader::decode(&bad).is_err());
        // Truncation anywhere must error, never panic or return garbage.
        for cut in 0..good.len() {
            assert!(ShardReader::decode(&good[..cut]).is_err(), "cut {cut}");
        }
        // A flipped byte in the edge payload or the stored checksum must
        // trip the checksum (or a structural check). Header bytes can flip
        // into other *valid* headers, so only the tail is exhaustive here.
        for back in 1..=4 {
            let mut bad = good.clone();
            let i = good.len() - back;
            bad[i] ^= 0x01;
            assert!(ShardReader::decode(&bad).is_err(), "flip at {i}");
        }
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(ShardReader::decode(&bad).is_err());
    }

    #[test]
    fn reader_rejects_absurd_vertex_counts_before_allocating() {
        // A crafted header promising 2^50 vertices must come back as an
        // error from the ~20-byte prefix, not attempt a petabyte mask.
        use crate::varint::write_u64;
        let mut b = Vec::new();
        b.extend_from_slice(&SHARD_MAGIC);
        b.push(SHARD_VERSION);
        b.push(0);
        write_u64(&mut b, 1 << 50); // num_vertices
        write_u64(&mut b, 0);
        write_u64(&mut b, 1);
        assert!(ShardReader::decode(&b).is_err());
    }

    #[test]
    fn reader_rejects_crafted_edge_count_before_allocating() {
        // A header promising u64::MAX/8 edges followed by a near-empty
        // payload must be rejected by the count-vs-remaining-bytes check
        // (each edge is ≥ 3 varint bytes), not by an OOM in with_capacity.
        use crate::varint::{write_ascending_ids, write_u64};
        let mut b = Vec::new();
        b.extend_from_slice(&SHARD_MAGIC);
        b.push(SHARD_VERSION);
        b.push(0); // modulo
        write_u64(&mut b, 4); // num_vertices
        write_u64(&mut b, 0); // shard_index
        write_u64(&mut b, 1); // shard_count
        write_ascending_ids(&mut b, &[0, 1, 2, 3]);
        write_u64(&mut b, u64::MAX / 8); // edge_count: crafted
        write_u64(&mut b, 0); // a few bytes of "payload"
        let err = ShardReader::decode(&b).unwrap_err();
        assert!(err.to_string().contains("edge count"), "{err}");
    }

    #[test]
    fn reader_rejects_crafted_owned_count_before_allocating() {
        // Same attack on the owned-id list: the declared count must be
        // bounded by the remaining payload before the vector is sized.
        use crate::varint::write_u64;
        let mut b = Vec::new();
        b.extend_from_slice(&SHARD_MAGIC);
        b.push(SHARD_VERSION);
        b.push(0);
        write_u64(&mut b, 4); // num_vertices
        write_u64(&mut b, 0); // shard_index
        write_u64(&mut b, 1); // shard_count
        write_u64(&mut b, u64::MAX / 2); // owned count: crafted
        write_u64(&mut b, 0);
        assert!(ShardReader::decode(&b).is_err());
    }

    #[test]
    fn reader_rejects_delta_overflow_without_panicking() {
        // Hand-built stream whose second edge's src_delta would wrap u64:
        // the decoder must return Err, not abort (debug) or wrap (release).
        use crate::varint::{write_ascending_ids, write_u64};
        let mut b = Vec::new();
        b.extend_from_slice(&SHARD_MAGIC);
        b.push(SHARD_VERSION);
        b.push(0); // modulo
        write_u64(&mut b, 4); // num_vertices
        write_u64(&mut b, 0); // shard_index
        write_u64(&mut b, 1); // shard_count
        write_ascending_ids(&mut b, &[0, 1, 2, 3]);
        write_u64(&mut b, 2); // edge_count
        write_u64(&mut b, 1); // edge 0: src=1
        write_u64(&mut b, 0); //          dst=0
        write_u64(&mut b, 0); //          weight-1
        write_u64(&mut b, u64::MAX); // edge 1: src_delta wraps
        write_u64(&mut b, 0);
        write_u64(&mut b, 0);
        write_u64(&mut b, 0); // "checksum"
        assert!(ShardReader::decode(&b).is_err());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn writer_rejects_out_of_order_edges() {
        let mut w = ShardWriter::new(4, 0, 1, OwnershipStrategy::Modulo, &[0, 1, 2, 3]);
        w.push_edge(2, 3, 1);
        w.push_edge(0, 1, 1);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn writer_rejects_unowned_src() {
        let mut w = ShardWriter::new(4, 0, 2, OwnershipStrategy::Modulo, &[0, 2]);
        w.push_edge(1, 0, 1);
    }

    #[test]
    fn plan_writes_shards_that_reassemble() {
        let g = two_cliques(8);
        for strategy in [OwnershipStrategy::Modulo, OwnershipStrategy::SortedBalanced] {
            for n in [1usize, 2, 4] {
                let dir = temp_dir(&format!("plan_{n}_{}", strategy.code()));
                let paths = shard_graph(&g, &dir, n, strategy).unwrap();
                assert_eq!(paths.len(), n);
                let header = validate_shard_dir(&dir).unwrap();
                assert_eq!(header.shard_count, n);
                assert_eq!(header.strategy, strategy);
                let g2 = unshard_graph(&dir).unwrap();
                assert_eq!(g, g2, "{strategy:?} × {n} shards");
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn plan_owner_partition_matches_strategy() {
        let g = two_cliques(6);
        let plan = ShardPlan::from_graph(&g, 3, OwnershipStrategy::SortedBalanced);
        assert_eq!(
            plan.owned,
            OwnershipStrategy::SortedBalanced.partition(&g, 3)
        );
        let owner = plan.owner_of();
        for (shard, part) in plan.owned.iter().enumerate() {
            for &v in part {
                assert_eq!(owner[v as usize], shard as u32);
            }
        }
    }

    #[test]
    fn header_only_read_matches_full_decode() {
        let g = two_cliques(6);
        let dir = temp_dir("header");
        let paths = shard_graph(&g, &dir, 2, OwnershipStrategy::SortedBalanced).unwrap();
        for path in &paths {
            let header = ShardReader::read_header(path).unwrap();
            let full = ShardReader::open(path).unwrap();
            assert_eq!(&header, full.header());
        }
        // Header reads reject non-shards too.
        let junk = dir.join("junk.sbps");
        std::fs::write(&junk, b"not a shard").unwrap();
        assert!(ShardReader::read_header(&junk).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_rejects_truncated_shrunk_and_missing_files() {
        let g = two_cliques(8);
        let dir = temp_dir("open_trunc");
        let paths = shard_graph(&g, &dir, 1, OwnershipStrategy::Modulo).unwrap();
        let good = std::fs::read(&paths[0]).unwrap();
        // Every truncation of the on-disk file must come back as a typed
        // error, never a crash or silent garbage.
        for cut in [0, 1, 5, good.len() / 2, good.len() - 1] {
            std::fs::write(&paths[0], &good[..cut]).unwrap();
            assert!(
                matches!(ShardReader::open(&paths[0]), Err(ShardError::Malformed(_))),
                "cut {cut}"
            );
        }
        // A file that shrinks after a reader constructed is harmless:
        // decode is eager-copy, so the reader owns its data outright.
        std::fs::write(&paths[0], &good).unwrap();
        let reader = ShardReader::open(&paths[0]).unwrap();
        std::fs::write(&paths[0], &good[..4]).unwrap();
        assert_eq!(reader.header().num_vertices, g.num_vertices());
        assert!(!reader.edges().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            ShardReader::open(&paths[0]),
            Err(ShardError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound
        ));
    }

    #[test]
    fn validation_returns_shard_zeros_header() {
        let g = two_cliques(8);
        let dir = temp_dir("scan");
        let paths = shard_graph(&g, &dir, 3, OwnershipStrategy::SortedBalanced).unwrap();
        let header = validate_shard_dir(&dir).unwrap();
        assert_eq!(header, ShardReader::read_header(&paths[0]).unwrap());
        assert_eq!(header.shard_count, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_dir_validation_catches_missing_shard() {
        let g = two_cliques(4);
        let dir = temp_dir("missing");
        let paths = shard_graph(&g, &dir, 3, OwnershipStrategy::Modulo).unwrap();
        std::fs::remove_file(&paths[1]).unwrap();
        assert!(validate_shard_dir(&dir).is_err());
        assert!(unshard_graph(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_dir_validation_catches_mixed_directories() {
        // Same shard count, but shard 1 comes from a different graph:
        // pre-flight must reject it instead of letting a rank panic later.
        let g_a = two_cliques(4);
        let g_b = two_cliques(6);
        let dir_a = temp_dir("mixed_a");
        let dir_b = temp_dir("mixed_b");
        let paths_a = shard_graph(&g_a, &dir_a, 2, OwnershipStrategy::Modulo).unwrap();
        let paths_b = shard_graph(&g_b, &dir_b, 2, OwnershipStrategy::Modulo).unwrap();
        std::fs::copy(&paths_b[1], &paths_a[1]).unwrap();
        assert!(validate_shard_dir(&dir_a).is_err());
        assert!(unshard_graph(&dir_a).is_err(), "mixed reassembly rejected");
        // A shard placed under the wrong index is caught too — in either
        // direction (shard 0 duplicated forward, or shard 1 copied over
        // position 0).
        std::fs::copy(&paths_a[0], &paths_a[1]).unwrap();
        assert!(validate_shard_dir(&dir_a).is_err());
        std::fs::copy(&paths_b[1], &paths_b[0]).unwrap();
        assert!(validate_shard_dir(&dir_b).is_err());
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();

        // Same graph, different ownership strategies: overlapping owned
        // sets would double edge weights — reassembly must refuse.
        let g = two_cliques(4);
        let dir_m = temp_dir("mixed_mod");
        let dir_s = temp_dir("mixed_bal");
        let paths_m = shard_graph(&g, &dir_m, 2, OwnershipStrategy::Modulo).unwrap();
        let paths_s = shard_graph(&g, &dir_s, 2, OwnershipStrategy::SortedBalanced).unwrap();
        std::fs::copy(&paths_s[1], &paths_m[1]).unwrap();
        assert!(validate_shard_dir(&dir_m).is_err());
        assert!(unshard_graph(&dir_m).is_err(), "strategy mix rejected");
        std::fs::remove_dir_all(&dir_m).unwrap();
        std::fs::remove_dir_all(&dir_s).unwrap();
    }

    #[test]
    fn empty_directory_is_a_dedicated_error_with_the_path() {
        let dir = temp_dir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        for result in [
            shard_paths(&dir).map(|_| ()),
            validate_shard_dir(&dir).map(|_| ()),
            unshard_graph(&dir).map(|_| ()),
        ] {
            match result {
                Err(ShardError::EmptyShardDir(p)) => assert_eq!(p, dir),
                other => panic!("expected EmptyShardDir, got {other:?}"),
            }
        }
        // The message names the path and does not claim corruption.
        let msg = ShardError::EmptyShardDir(dir.clone()).to_string();
        assert!(msg.contains(dir.to_str().unwrap()), "message lacks path");
        assert!(!msg.contains("malformed"), "empty dir is not corruption");
        // A directory with a non-shard file is still "empty" in shard
        // terms; a real shard clears the error.
        std::fs::write(dir.join("notes.txt"), b"hello").unwrap();
        assert!(matches!(
            shard_paths(&dir),
            Err(ShardError::EmptyShardDir(_))
        ));
        let g = two_cliques(4);
        shard_graph(&g, &dir, 1, OwnershipStrategy::Modulo).unwrap();
        assert!(shard_paths(&dir).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
