//! Fixture: the decode entry point through which untrusted bytes enter.
//! Panic sites in *this* file are clippy's business (a boundary file);
//! the reachability pass follows the call into the helper file.

pub fn decode(bytes: &[u8]) -> Result<u64, String> {
    header_word(bytes)
}
