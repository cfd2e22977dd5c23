//! `graphtempo` — interactive exploration shell for GraphTempo temporal
//! graphs (the exploration framework envisioned in the paper's conclusion).
//!
//! ```text
//! $ graphtempo
//! graphtempo> generate dblp scale=0.05
//! graphtempo> agg dist attrs=gender
//! graphtempo> explore event=stability semantics=intersect extend=new k=10 attrs=gender edge=f->f
//! ```
//!
//! Commands may also be passed as arguments for one-shot use:
//! `graphtempo "generate dblp" stats`.

// DESIGN §7.1: a typed error, or an `expect("invariant: …")` under its own `#[allow]`
#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use graphtempo_cli::Session;
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut session = Session::new();

    if !args.is_empty() {
        // one-shot mode: each argument is a command line
        let mut failed = false;
        for cmd in &args {
            match session.exec(cmd) {
                Ok(out) => {
                    if !out.is_empty() {
                        println!("{out}");
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    failed = true;
                }
            }
        }
        std::process::exit(i32::from(failed));
    }

    println!("GraphTempo shell — type `help` for commands, `quit` to exit.");
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("graphtempo> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("error reading input: {e}");
                break;
            }
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        match session.exec(line) {
            Ok(out) => {
                if !out.is_empty() {
                    println!("{out}");
                }
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
}
