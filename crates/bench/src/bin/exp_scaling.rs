//! E1: corpus-size scaling sweep.
//!
//! ```sh
//! exp_scaling                                   # default sweep
//! exp_scaling --sizes 2000,4000,8000            # custom sizes
//! ```

const DEFAULT_SIZES: &[usize] = &[10_000, 20_000, 40_000, 80_000];

fn parse_sizes(argv: &[String]) -> Result<Vec<usize>, String> {
    let mut sizes = DEFAULT_SIZES.to_vec();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sizes" => {
                let v = it.next().ok_or("--sizes needs a comma-separated list")?;
                sizes = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .map_err(|_| format!("--sizes: not a number: {s:?}"))
                    })
                    .collect::<Result<_, _>>()?;
                if sizes.is_empty() {
                    return Err("--sizes: need at least one size".into());
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(sizes)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let sizes = match parse_sizes(&argv) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    print!("{}", probase_bench::exp_scale::scaling_sweep(&sizes));
}
