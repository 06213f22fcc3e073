//! The measured binary: system allocator untouched, tracing off.

fn main() -> std::process::ExitCode {
    stackbench::cli::main()
}
