fn main() -> std::process::ExitCode {
    eccbench::cli::main(std::env::args().skip(1).collect())
}
