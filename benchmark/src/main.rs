fn main() -> std::process::ExitCode {
    braid_benchmark::main()
}
