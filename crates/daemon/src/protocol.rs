//! The wire protocol of the build daemon.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! big-endian length prefix followed by that many bytes of UTF-8 JSON.
//! Frames beyond [`MAX_FRAME`] are rejected before allocation, so a
//! malformed or hostile peer can make a connection fail but never make the
//! daemon hang or balloon.
//!
//! Requests are flat objects: `{"cmd": "build", "dir": "...", "args":
//! [...], ...}`. Responses always carry `"ok"`; failures add a typed
//! `"error"` object (`{"kind": "busy", "message": "..."}`) so clients can
//! distinguish overload (`busy`, `timeout`) from request problems
//! (`malformed`, `outside-root`, `build`) without parsing prose.

use sfcc_trace::json::{self, Value};
use std::io::{self, Read, Write};

/// Hard ceiling on one frame's payload, requests and responses alike.
pub const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates transport failures; rejects payloads beyond [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
                payload.len()
            ),
        ));
    }
    let len = u32::try_from(payload.len()).expect("MAX_FRAME fits in u32");
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` means the peer closed the
/// connection cleanly before a length prefix arrived.
///
/// # Errors
///
/// Propagates transport failures; a length prefix beyond [`MAX_FRAME`] is
/// an `InvalidData` error (the bytes are never allocated or read).
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 4];
    match r.read_exact(&mut len_bytes) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte limit"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A parsed daemon request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    /// The command: `build`, `ir`, `run`, `bc`, `depcheck`, `stats`,
    /// `ping`, or `shutdown`.
    pub cmd: String,
    /// The project directory, for commands that build one.
    pub dir: Option<String>,
    /// The module operand (`ir`).
    pub module: Option<String>,
    /// The output image path (`build` with `-o`), client-resolved to an
    /// absolute path.
    pub out: Option<String>,
    /// Build flags, verbatim CLI syntax (`--stateful`, `--jobs`, `8`, …).
    pub args: Vec<String>,
    /// Program arguments (`run`), the CLI's `-- <n>...` integers.
    pub prog_args: Vec<i64>,
}

impl Request {
    /// A request carrying only a command.
    pub fn bare(cmd: &str) -> Request {
        Request {
            cmd: cmd.to_string(),
            ..Request::default()
        }
    }

    /// Serializes the request to its wire JSON.
    pub fn to_json(&self) -> String {
        let mut fields = vec![("cmd", self.cmd.as_str().into())];
        let strings = [
            ("dir", &self.dir),
            ("module", &self.module),
            ("out", &self.out),
        ];
        for (key, value) in strings {
            if let Some(value) = value {
                fields.push((key, value.as_str().into()));
            }
        }
        if !self.args.is_empty() {
            fields.push(("args", self.args.iter().map(String::as_str).collect()));
        }
        if !self.prog_args.is_empty() {
            fields.push(("prog_args", self.prog_args.iter().copied().collect()));
        }
        json::write(&Value::obj(fields))
    }

    /// Parses a request from wire JSON.
    ///
    /// # Errors
    ///
    /// Returns a description of why the payload is not a valid request.
    pub fn parse(text: &str) -> Result<Request, String> {
        let doc = json::parse(text)?;
        let cmd = doc
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or("request has no string \"cmd\" field")?
            .to_string();
        let string_field = |key: &str| -> Result<Option<String>, String> {
            match doc.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or_else(|| format!("request field \"{key}\" is not a string")),
            }
        };
        let mut request = Request {
            cmd,
            dir: string_field("dir")?,
            module: string_field("module")?,
            out: string_field("out")?,
            args: Vec::new(),
            prog_args: Vec::new(),
        };
        if let Some(args) = doc.get("args") {
            let items = args
                .as_arr()
                .ok_or("request field \"args\" is not an array")?;
            for item in items {
                request.args.push(
                    item.as_str()
                        .ok_or("request \"args\" entries must be strings")?
                        .to_string(),
                );
            }
        }
        if let Some(prog) = doc.get("prog_args") {
            let items = prog
                .as_arr()
                .ok_or("request field \"prog_args\" is not an array")?;
            for item in items {
                let n = as_i64(item)
                    .ok_or("request \"prog_args\" entries must be integers within ±2^53")?;
                request.prog_args.push(n);
            }
        }
        Ok(request)
    }
}

/// Extracts a (possibly negative) integer from a JSON number value: one
/// an `f64` holds exactly (|n| ≤ 2⁵³), so nothing is rounded or saturated.
fn as_i64(value: &Value) -> Option<i64> {
    const EXACT: f64 = (1u64 << 53) as f64;
    match value {
        Value::Num(n) if n.fract() == 0.0 && n.abs() <= EXACT => Some(*n as i64),
        _ => None,
    }
}

/// The typed error kinds a daemon response can carry. The string forms are
/// the wire contract (`error.kind`); clients map them to exit codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request payload did not parse or named an unknown command.
    Malformed,
    /// The admission queue is full; retry later.
    Busy,
    /// The request waited longer than the per-request timeout for a worker
    /// slot or for its project session.
    Timeout,
    /// The project directory resolves outside the daemon's root.
    OutsideRoot,
    /// The daemon is shutting down and no longer admits work.
    ShuttingDown,
    /// The build (or the command riding on it) failed.
    Build,
    /// An internal daemon failure (session creation, I/O).
    Internal,
}

impl ErrorKind {
    /// The wire identifier.
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::Malformed => "malformed",
            ErrorKind::Busy => "busy",
            ErrorKind::Timeout => "timeout",
            ErrorKind::OutsideRoot => "outside-root",
            ErrorKind::ShuttingDown => "shutting-down",
            ErrorKind::Build => "build",
            ErrorKind::Internal => "internal",
        }
    }

    /// Parses a wire identifier.
    pub fn from_label(label: &str) -> Option<ErrorKind> {
        Some(match label {
            "malformed" => ErrorKind::Malformed,
            "busy" => ErrorKind::Busy,
            "timeout" => ErrorKind::Timeout,
            "outside-root" => ErrorKind::OutsideRoot,
            "shutting-down" => ErrorKind::ShuttingDown,
            "build" => ErrorKind::Build,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// A success response: `{"ok":true,"cmd":"...",…}` followed by the members
/// of the `members` object.
pub fn ok_response(cmd: &str, members: Value) -> Value {
    let mut fields = vec![
        ("ok".to_string(), Value::Bool(true)),
        ("cmd".to_string(), cmd.into()),
    ];
    if let Value::Obj(members) = members {
        fields.extend(members);
    }
    Value::Obj(fields)
}

/// A typed error response.
pub fn error_response(kind: ErrorKind, message: &str) -> Value {
    Value::obj([
        ("ok", Value::Bool(false)),
        (
            "error",
            Value::obj([("kind", kind.label().into()), ("message", message.into())]),
        ),
    ])
}

/// A parsed response, as seen by a client.
#[derive(Debug)]
pub struct Reply {
    /// Whether the request succeeded.
    pub ok: bool,
    /// The typed error kind of a failed request (`Internal` when the
    /// response is missing one).
    pub error: Option<(ErrorKind, String)>,
    /// The full parsed response document.
    pub body: Value,
}

impl Reply {
    /// Parses a response payload.
    ///
    /// # Errors
    ///
    /// Returns a description of why the payload is not a valid response.
    pub fn parse(text: &str) -> Result<Reply, String> {
        let body = json::parse(text)?;
        let ok = body
            .get("ok")
            .and_then(Value::as_bool)
            .ok_or("response has no boolean \"ok\" field")?;
        let error = if ok {
            None
        } else {
            let err = body
                .get("error")
                .ok_or("failed response carries no error")?;
            let kind = err
                .get("kind")
                .and_then(Value::as_str)
                .and_then(ErrorKind::from_label)
                .unwrap_or(ErrorKind::Internal);
            let message = err
                .get("message")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            Some((kind, message))
        };
        Ok(Reply { ok, error, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn requests_roundtrip() {
        let request = Request {
            cmd: "run".into(),
            dir: Some("/tmp/p".into()),
            module: None,
            out: Some("/tmp/p.sbx".into()),
            args: vec!["--stateful".into(), "--jobs".into(), "8".into()],
            prog_args: vec![21, -3],
        };
        let parsed = Request::parse(&request.to_json()).unwrap();
        assert_eq!(parsed, request);
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        assert!(Request::parse("not json").is_err());
        for (frame, needle) in [
            (r#"{"dir":"x"}"#, "cmd"),
            (r#"{"cmd":"build","args":"x"}"#, "args"),
            // Beyond 2^53 an f64 no longer holds every integer: the daemon
            // refuses the number rather than run on a rounded or saturated one.
            (r#"{"cmd":"run","prog_args":[1e300]}"#, "prog_args"),
            (
                r#"{"cmd":"run","prog_args":[-9007199254740994]}"#,
                "prog_args",
            ),
            (r#"{"cmd":"run","prog_args":[2.5]}"#, "prog_args"),
        ] {
            let err = Request::parse(frame).unwrap_err();
            assert!(err.contains(needle), "{frame}: {err}");
        }
        let edge = Request::parse(r#"{"cmd":"run","prog_args":[-9007199254740992]}"#).unwrap();
        assert_eq!(edge.prog_args, [-(1i64 << 53)]);
    }

    #[test]
    fn responses_roundtrip_typed_errors() {
        let ok = Reply::parse(&json::write(&ok_response("ping", Value::Null))).unwrap();
        assert!(ok.ok);
        let err =
            Reply::parse(&json::write(&error_response(ErrorKind::Busy, "queue full"))).unwrap();
        assert!(!err.ok);
        let (kind, message) = err.error.unwrap();
        assert_eq!(kind, ErrorKind::Busy);
        assert_eq!(message, "queue full");
    }
}
