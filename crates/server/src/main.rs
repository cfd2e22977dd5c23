//! `tempo-server` binary: binds the query service and runs until a client
//! sends `shutdown` (or the process receives a fatal signal).
//!
//! ```text
//! $ tempo-server --addr 127.0.0.1:7341 --timeout-ms 5000 --max-rows 1000
//! tempo-server listening on 127.0.0.1:7341
//! ```

// DESIGN §7.1: a typed error, or an `expect("invariant: …")` under its own `#[allow]`
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use tempo_server::ServerConfig;

fn parse_args(args: &[String]) -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:7341".to_owned(),
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--timeout-ms" => {
                let v: u64 = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| "--timeout-ms needs an integer".to_owned())?;
                cfg.default_timeout_ms = (v > 0).then_some(v);
            }
            "--max-rows" => {
                cfg.default_max_rows = value("--max-rows")?
                    .parse()
                    .map_err(|_| "--max-rows needs an integer".to_owned())?;
            }
            "--max-conns" => {
                cfg.max_connections = value("--max-conns")?
                    .parse()
                    .map_err(|_| "--max-conns needs an integer".to_owned())?;
            }
            "--help" | "-h" => {
                return Err("usage: tempo-server [--addr HOST:PORT] [--timeout-ms N] \
                     [--max-rows N] [--max-conns N]"
                    .to_owned())
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    match tempo_server::spawn(cfg) {
        Ok(server) => {
            println!("tempo-server listening on {}", server.addr());
            server.join();
            println!("tempo-server stopped");
        }
        Err(e) => {
            eprintln!("failed to start: {e}");
            std::process::exit(1);
        }
    }
}
