#!/bin/bash
# Regenerates every figure and table of the paper into results/, in one
# process: the figures run one thread each over a pool of IPCP_JOBS
# simulation workers (default: all cores; IPCP_JOBS=1 for the
# byte-identical serial reference mode).
#
# Usage: ./run_all_experiments.sh [experiment ...]
#   IPCP_SCALE=paper   10x deeper runs
#   IPCP_JOBS=N        simulation workers
#   IPCP_CSV=dir       also emit CSV copies of every table
#   IPCP_JSON=dir      JSON sidecar per figure (default: the results dir;
#                      set empty to disable)
#   IPCP_INTERVAL=N    sample an interval time-series every N instructions
#
# Build errors abort immediately and any failing experiment makes this
# script exit non-zero (the driver prints a failure summary and writes
# results/manifest.json either way).
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release -p ipcp-bench -p ipcp-tools
exec ./target/release/experiments "$@"
