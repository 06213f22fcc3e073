//! The traced binary: the same command line over a counting allocator,
//! so that `alloc.*` is measured and the measured binary pays nothing
//! for it.

#[global_allocator]
static ALLOCATOR: stackbench::alloc::Counting = stackbench::alloc::Counting;

fn main() -> std::process::ExitCode {
    stackbench::cli::main()
}
