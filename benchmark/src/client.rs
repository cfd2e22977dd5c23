//! Blocking client for the server's line protocol (`OK <n> [epoch=<e>]`
//! followed by `n` payload lines, or `ERR <message>`).

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// One reply, as received.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    /// The whole wire text: status line and payload lines.
    pub text: String,
    /// Length of the status line including its newline.
    status_len: usize,
}

impl Reply {
    /// True for an `OK` reply.
    pub fn is_ok(&self) -> bool {
        self.text.starts_with("OK ")
    }

    /// The status line without its newline.
    pub fn status(&self) -> &str {
        self.text[..self.status_len].trim_end()
    }

    /// The `epoch=<e>` token of a snapshot-scoped reply.
    pub fn epoch(&self) -> Option<u64> {
        self.status()
            .split_whitespace()
            .find_map(|t| t.strip_prefix("epoch="))
            .and_then(|e| e.parse().ok())
    }

    /// The payload lines joined by newlines, as a shell session returns
    /// the same answer.
    pub fn payload(&self) -> &str {
        self.text[self.status_len..].trim_end_matches('\n')
    }
}

/// A connection to the server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    /// Connects; requests leave in one segment each (`TCP_NODELAY`).
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    /// One request, one reply.
    pub fn request(&mut self, line: &str) -> std::io::Result<Reply> {
        self.line.clear();
        self.line.push_str(line);
        self.line.push('\n');
        self.writer.write_all(self.line.as_bytes())?;
        let mut text = String::new();
        let status_len = self.reader.read_line(&mut text)?;
        if status_len == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        if let Some(rest) = text.strip_prefix("OK ") {
            let n: usize = rest
                .split_whitespace()
                .next()
                .and_then(|n| n.parse().ok())
                .ok_or(std::io::ErrorKind::InvalidData)?;
            for _ in 0..n {
                if self.reader.read_line(&mut text)? == 0 {
                    return Err(std::io::ErrorKind::UnexpectedEof.into());
                }
            }
        }
        Ok(Reply { text, status_len })
    }
}

/// FNV-1a of a reply, kept in place of the text where a run cannot afford
/// to hold every answer.
pub fn fingerprint(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_parts() {
        let r = Reply {
            text: "OK 2 epoch=7\nfirst\nsecond\n".to_owned(),
            status_len: 13,
        };
        assert!(r.is_ok());
        assert_eq!(r.status(), "OK 2 epoch=7");
        assert_eq!(r.epoch(), Some(7));
        assert_eq!(r.payload(), "first\nsecond");
        let e = Reply {
            text: "ERR nope\n".to_owned(),
            status_len: 9,
        };
        assert!(!e.is_ok());
        assert_eq!(e.epoch(), None);
        assert_eq!(e.payload(), "");
    }

    #[test]
    fn fingerprints_tell_answers_apart() {
        assert_eq!(fingerprint("a\nb"), fingerprint("a\nb"));
        assert_ne!(fingerprint("a\nb"), fingerprint("a\nc"));
    }
}
