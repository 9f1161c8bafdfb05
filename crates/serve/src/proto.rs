//! Wire protocol: length-prefixed JSON frames over a byte stream.
//!
//! Every message — request or response — is one UTF-8 JSON document
//! preceded by its byte length as a 4-byte big-endian unsigned integer.
//! The prefix makes framing trivial for any client (read 4 bytes, read
//! N bytes) without needing a streaming JSON parser, and the JSON body
//! reuses the zero-dependency `rhsd_obs::json` parser, so this crate
//! pulls in nothing new.
//!
//! Responses are serialised by hand with a fixed key order. That is a
//! load-bearing property, not a style choice: the CI bench gate
//! byte-compares a served scan against an offline scan written through
//! the same [`scan_response_json`] serialiser, which turns "the server
//! is bit-identical to the offline pipeline" into a `cmp` of two files.

use std::io::{Read, Write};

use rhsd_core::detector::ScanResult;
use rhsd_data::Benchmark;
use rhsd_layout::synth::CaseId;
use rhsd_layout::Rect;
use rhsd_obs::json::{self, Value};

/// Hard ceiling on a single frame body, defending the server against
/// absurd length prefixes from broken or hostile clients.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Protocol version tag echoed by the `info` op.
pub const PROTO_VERSION: &str = "rhsd-serve/1";

/// Errors from framing or decoding a protocol message.
#[derive(Debug)]
pub enum ProtoError {
    /// Reading or writing the underlying stream failed.
    Io(std::io::Error),
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(u32),
    /// The frame body is not valid UTF-8.
    Utf8,
    /// The frame body is not valid JSON (byte offset of the error).
    BadJson(usize),
    /// The JSON parsed but is not a well-formed request.
    BadRequest(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "stream error: {e}"),
            ProtoError::TooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_BYTES} limit")
            }
            ProtoError::Utf8 => write!(f, "frame body is not UTF-8"),
            ProtoError::BadJson(at) => write!(f, "frame body is not JSON (error at byte {at})"),
            ProtoError::BadRequest(msg) => write!(f, "bad request: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtoError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// Writes one frame: 4-byte big-endian length, then the payload bytes.
///
/// # Errors
///
/// Returns the underlying I/O error on a failed or short write.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let len = payload.len() as u32;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one frame body. Returns `Ok(None)` on a clean end-of-stream at
/// a frame boundary (the peer closed after a complete exchange).
///
/// # Errors
///
/// [`ProtoError::Io`] on stream failures (including EOF mid-frame),
/// [`ProtoError::TooLarge`] for oversized prefixes, [`ProtoError::Utf8`]
/// for non-UTF-8 bodies.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, ProtoError> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled first-byte read so EOF *between* frames is a clean
    // `None` while EOF *inside* a frame stays an error. An interrupted
    // read is retried, as `read_exact` retries it.
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::TooLarge(len));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(Some)
        .map_err(|_| ProtoError::Utf8)
}

/// Which half of a benchmark a scan request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Half {
    /// The training half (first-half extent).
    Train,
    /// The held-out test half — the paper's evaluation split and the
    /// default when a request does not name a half.
    Test,
}

impl Half {
    /// Wire name of the half.
    pub fn name(&self) -> &'static str {
        match self {
            Half::Train => "train",
            Half::Test => "test",
        }
    }

    /// The extent of `bench` this half covers.
    pub fn extent(self, bench: &Benchmark) -> Rect {
        match self {
            Half::Train => bench.train_extent,
            Half::Test => bench.test_extent,
        }
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; echoed back immediately.
    Ping,
    /// Model and server identity (format tag, geometry, thread count).
    Info,
    /// Scan one synthetic case's half: one pass over the `rhsd-par`
    /// pool, one task per region.
    Scan {
        /// The benchmark case to scan.
        case: CaseId,
        /// Which half of the layout to scan.
        half: Half,
    },
    /// Server counters: request totals, regions scanned, cache rates.
    Stats,
    /// Graceful shutdown: the server acknowledges, stops accepting, and
    /// drains in-flight work before exiting.
    Shutdown,
}

/// Parses a case name (`"Case2"`) into a [`CaseId`].
///
/// # Errors
///
/// Returns the offending name when it matches no known case.
pub fn case_from_name(name: &str) -> Result<CaseId, String> {
    [CaseId::Case1, CaseId::Case2, CaseId::Case3, CaseId::Case4]
        .into_iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| format!("unknown case `{name}`"))
}

/// Decodes one request frame body.
///
/// # Errors
///
/// [`ProtoError::BadJson`] when the body is not JSON and
/// [`ProtoError::BadRequest`] when it is JSON but not a request.
pub fn parse_request(body: &str) -> Result<Request, ProtoError> {
    let v = json::parse(body).map_err(ProtoError::BadJson)?;
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ProtoError::BadRequest("missing `op` field".into()))?;
    match op {
        "ping" => Ok(Request::Ping),
        "info" => Ok(Request::Info),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "scan" => {
            let case = v
                .get("case")
                .and_then(Value::as_str)
                .ok_or_else(|| ProtoError::BadRequest("scan needs a `case` field".into()))?;
            let case = case_from_name(case).map_err(ProtoError::BadRequest)?;
            let half = match v.get("half").and_then(Value::as_str) {
                None | Some("test") => Half::Test,
                Some("train") => Half::Train,
                Some(other) => {
                    return Err(ProtoError::BadRequest(format!(
                        "unknown half `{other}` (expected `train` or `test`)"
                    )))
                }
            };
            Ok(Request::Scan { case, half })
        }
        other => Err(ProtoError::BadRequest(format!("unknown op `{other}`"))),
    }
}

/// Encodes a request as a frame body (the client side of
/// [`parse_request`]).
pub fn request_json(req: &Request) -> String {
    match req {
        Request::Ping => "{\"op\":\"ping\"}".to_owned(),
        Request::Info => "{\"op\":\"info\"}".to_owned(),
        Request::Stats => "{\"op\":\"stats\"}".to_owned(),
        Request::Shutdown => "{\"op\":\"shutdown\"}".to_owned(),
        Request::Scan { case, half } => format!(
            "{{\"op\":\"scan\",\"case\":\"{}\",\"half\":\"{}\"}}",
            case.name(),
            half.name()
        ),
    }
}

/// Serialises a scan result with a fixed key order — the canonical form
/// shared by served scan replies and the offline `--offline-scan`
/// reference writer, so bit-identity is a byte comparison.
pub fn scan_response_json(case: CaseId, half: Half, result: &ScanResult) -> String {
    let mut out = String::with_capacity(128 + result.detections.len() * 96);
    out.push_str("{\"op\":\"scan\",\"case\":\"");
    out.push_str(case.name());
    out.push_str("\",\"half\":\"");
    out.push_str(half.name());
    out.push_str("\",\"regions\":");
    out.push_str(&result.regions.to_string());
    out.push_str(",\"evaluation\":{\"ground_truth\":");
    out.push_str(&result.evaluation.ground_truth.to_string());
    out.push_str(",\"true_positives\":");
    out.push_str(&result.evaluation.true_positives.to_string());
    out.push_str(",\"false_alarms\":");
    out.push_str(&result.evaluation.false_alarms.to_string());
    out.push_str("},\"detections\":[");
    for (i, d) in result.detections.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"clip\":[");
        out.push_str(&format!(
            "{},{},{},{}",
            d.clip.x0, d.clip.y0, d.clip.x1, d.clip.y1
        ));
        out.push_str("],\"score\":");
        out.push_str(&json::number(f64::from(d.score)));
        out.push_str(",\"region\":[");
        out.push_str(&format!(
            "{},{},{},{}",
            d.region.x0, d.region.y0, d.region.x1, d.region.y1
        ));
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Serialises an error reply.
pub fn error_json(msg: &str) -> String {
    format!("{{\"op\":\"error\",\"message\":\"{}\"}}", json::escape(msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rhsd_core::detector::LayoutDetection;
    use rhsd_core::Evaluation;
    use rhsd_layout::Rect;

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"ping\"}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"op\":\"ping\"}")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    /// A reader whose first `read` is interrupted, as a signal can
    /// interrupt a socket read.
    struct InterruptedOnce<'a> {
        interrupted: bool,
        inner: &'a [u8],
    }

    impl Read for InterruptedOnce<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            self.inner.read(buf)
        }
    }

    #[test]
    fn an_interrupted_first_read_is_retried() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"ping\"}").unwrap();
        let mut r = InterruptedOnce {
            interrupted: false,
            inner: &buf,
        };
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"op\":\"ping\"}")
        );
        assert!(r.interrupted);
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn eof_mid_frame_is_an_error_not_a_clean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"op\":\"ping\"}").unwrap();
        for cut in [1, 3, 5, buf.len() - 1] {
            let mut r = &buf[..cut];
            assert!(
                matches!(read_frame(&mut r), Err(ProtoError::Io(_))),
                "cut at {cut} must be an I/O error"
            );
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let bytes = (MAX_FRAME_BYTES + 1).to_be_bytes();
        let mut r = bytes.as_slice();
        assert!(matches!(read_frame(&mut r), Err(ProtoError::TooLarge(_))));
    }

    #[test]
    fn non_utf8_body_is_rejected() {
        let mut buf = 2u32.to_be_bytes().to_vec();
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut r = buf.as_slice();
        assert!(matches!(read_frame(&mut r), Err(ProtoError::Utf8)));
    }

    #[test]
    fn every_request_roundtrips_through_its_json() {
        let reqs = [
            Request::Ping,
            Request::Info,
            Request::Stats,
            Request::Shutdown,
            Request::Scan {
                case: CaseId::Case2,
                half: Half::Test,
            },
            Request::Scan {
                case: CaseId::Case4,
                half: Half::Train,
            },
        ];
        for req in reqs {
            let body = request_json(&req);
            assert_eq!(parse_request(&body).unwrap(), req, "{body}");
        }
    }

    #[test]
    fn scan_without_half_defaults_to_test() {
        let req = parse_request("{\"op\":\"scan\",\"case\":\"Case3\"}").unwrap();
        assert_eq!(
            req,
            Request::Scan {
                case: CaseId::Case3,
                half: Half::Test
            }
        );
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        assert!(matches!(parse_request("nope"), Err(ProtoError::BadJson(_))));
        for bad in [
            "{}",
            "{\"op\":\"mine\"}",
            "{\"op\":\"scan\"}",
            "{\"op\":\"scan\",\"case\":\"Case9\"}",
            "{\"op\":\"scan\",\"case\":\"Case2\",\"half\":\"middle\"}",
        ] {
            assert!(
                matches!(parse_request(bad), Err(ProtoError::BadRequest(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn deeply_nested_body_is_bad_json_not_a_stack_overflow() {
        let body = "[".repeat(200_000);
        assert!(matches!(
            parse_request(&body),
            Err(ProtoError::BadJson(at)) if at == json::MAX_DEPTH
        ));
    }

    #[test]
    fn scan_response_is_valid_json_with_stable_shape() {
        let result = ScanResult {
            detections: vec![LayoutDetection {
                clip: Rect::new(10, 20, 30, 40),
                score: 0.5,
                region: Rect::new(0, 0, 100, 100),
            }],
            evaluation: Evaluation {
                ground_truth: 3,
                true_positives: 2,
                false_alarms: 1,
            },
            regions: 18,
        };
        let body = scan_response_json(CaseId::Case2, Half::Test, &result);
        json::validate(&body).unwrap_or_else(|at| panic!("invalid at {at}: {body}"));
        let v = json::parse(&body).unwrap();
        assert_eq!(v.get("case").and_then(Value::as_str), Some("Case2"));
        assert_eq!(v.get("regions").and_then(Value::as_u64), Some(18));
        let dets = v.get("detections").and_then(Value::as_arr).unwrap();
        assert_eq!(dets.len(), 1);
        let clip = dets[0].get("clip").and_then(Value::as_arr).unwrap();
        assert_eq!(
            clip.iter().filter_map(Value::as_f64).collect::<Vec<_>>(),
            [10.0, 20.0, 30.0, 40.0]
        );
    }

    #[test]
    fn error_reply_escapes_the_message() {
        let body = error_json("bad \"op\"\nline");
        json::validate(&body).unwrap();
        let v = json::parse(&body).unwrap();
        assert_eq!(
            v.get("message").and_then(Value::as_str),
            Some("bad \"op\"\nline")
        );
    }
}
