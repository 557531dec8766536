//! The `sorete-server` binary: `serve` and `request` subcommands.
//! All the logic lives in the library (`sorete_server::cli_main`) so the
//! root `sorete serve` CLI shares it.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(sorete_server::cli_main(&args));
}
