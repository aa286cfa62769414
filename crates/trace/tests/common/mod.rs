//! Shared by the integration tests that feed the streaming binary
//! reader through short reads.

use std::io::Read;

/// Read sizes that put chunk boundaries everywhere a record can
/// straddle one: single bytes, inside and around the longest event
/// record (21 bytes), and around the reader's 64 KiB refill buffer.
pub const CHUNK_SIZES: [usize; 8] = [1, 2, 7, 20, 21, 22, 65_535, 65_537];

/// A `Read` adapter returning at most `k` bytes per call, the way a
/// pipe or socket may.
pub struct Chunked<'a> {
    pub bytes: &'a [u8],
    pub k: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.k.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}
