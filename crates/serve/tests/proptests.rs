//! Property tests for the wire protocol: no byte string a client can
//! send makes `read_frame` + `parse_request` panic or abort; each call
//! returns a request or a typed [`ProtoError`].

use proptest::prelude::*;
use rhsd_obs::json::MAX_DEPTH;
use rhsd_serve::proto::{parse_request, read_frame, ProtoError};

/// Bytes that steer generated bodies into the JSON grammar.
const JSONISH: &[u8] = b"[]{}\":,0-.e\\ unt\"op\"ping\"scan\"case\"half\xff";

/// Reads one frame from `bytes` and parses its body, checking that every
/// failure is the typed error of the layer that raised it.
fn decode(bytes: &[u8]) -> Result<(), String> {
    let mut r = bytes;
    match read_frame(&mut r) {
        Ok(None) => Ok(()),
        Ok(Some(body)) => match parse_request(&body) {
            Ok(_) | Err(ProtoError::BadJson(_) | ProtoError::BadRequest(_)) => Ok(()),
            Err(e) => Err(format!("parse_request raised a framing error: {e}")),
        },
        Err(ProtoError::Io(_) | ProtoError::TooLarge(_) | ProtoError::Utf8) => Ok(()),
        Err(e) => Err(format!("read_frame raised a body error: {e}")),
    }
}

/// `body` behind a correct length prefix.
fn framed(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

/// A `depth`-deep nest of arrays or `{"op":…}` objects around `0`.
fn nested(depth: usize, object: bool) -> String {
    let (open, close) = if object {
        ("{\"op\":", "}")
    } else {
        ("[", "]")
    };
    open.repeat(depth) + "0" + &close.repeat(depth)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_decode_or_fail_typed(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        decode(&bytes)?;
        decode(&framed(&bytes))?;
    }

    #[test]
    fn json_shaped_bodies_decode_or_fail_typed(
        picks in proptest::collection::vec(0..JSONISH.len(), 0..256),
    ) {
        let body: Vec<u8> = picks.iter().map(|&i| JSONISH[i]).collect();
        decode(&framed(&body))?;
    }

    #[test]
    fn nesting_past_the_bound_is_bad_json(
        shallow in 0..=MAX_DEPTH,
        deep in MAX_DEPTH + 1..300_000,
        object in proptest::bool::ANY,
    ) {
        for depth in [shallow, deep] {
            let frame = framed(nested(depth, object).as_bytes());
            let body = read_frame(&mut frame.as_slice()).map_err(|e| e.to_string())?;
            let got = parse_request(&body.unwrap_or_default());
            // Within the bound the body is JSON but no request.
            if depth > MAX_DEPTH {
                prop_assert!(matches!(got, Err(ProtoError::BadJson(_))), "depth {depth}: {got:?}");
            } else {
                prop_assert!(matches!(got, Err(ProtoError::BadRequest(_))), "depth {depth}: {got:?}");
            }
        }
    }
}
