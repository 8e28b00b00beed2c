let mmio_access_ns = 400L
let cache_flush_ns_per_kb = 250L
let driver_submit_overhead_ns = 50_000L
let runtime_job_prep_ns = 300_000L
let jit_compile_ns_per_kernel = 2_400_000L
let replayer_step_ns = 700L
let gpu_flops_per_s = 30.0e9
let gpu_job_fixed_ns = 45_000L

(* Link-level retransmission policy (TCP-flavored, but link-local: the
   secure channel is message-oriented, so the shim does its own ARQ). *)
let link_rto_min_s = 0.010
let link_rto_rtt_multiplier = 2.0
let link_rto_backoff = 2.0
let link_rto_max_s = 1.0
let link_max_attempts = 8
