fn main() -> std::process::ExitCode {
    graphbench::cli::main()
}
