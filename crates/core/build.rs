//! Writes the two tables of `src/lntab.rs` into `OUT_DIR` as the
//! little-endian bits of `2¹⁶` `f64`s each: `ln.bin` holds `ln(i)` and
//! `xlnx.bin` holds `i · ln(i)`, both `0.0` at `i = 0` (the callers'
//! convention for empty blocks). `lntab` decodes them at compile time, so a
//! lookup is one bounds compare and one load. Its tests check every entry
//! against the same expression evaluated at run time, bit for bit.

use std::path::PathBuf;

/// Entries per table. `lntab` includes the files as `&[u8; TABLE_SIZE * 8]`
/// of its own `TABLE_SIZE`, so a mismatch fails to compile.
const TABLE_SIZE: usize = 1 << 16;

fn main() {
    let out = PathBuf::from(std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR"));
    let mut ln = Vec::with_capacity(TABLE_SIZE * 8);
    let mut xlnx = Vec::with_capacity(TABLE_SIZE * 8);
    for i in 0..TABLE_SIZE {
        let x = i as f64;
        let l = if i == 0 { 0.0 } else { x.ln() };
        ln.extend_from_slice(&l.to_le_bytes());
        xlnx.extend_from_slice(&(x * l).to_le_bytes());
    }
    std::fs::write(out.join("ln.bin"), ln).expect("write ln.bin");
    std::fs::write(out.join("xlnx.bin"), xlnx).expect("write xlnx.bin");
    println!("cargo::rerun-if-changed=build.rs");
}
