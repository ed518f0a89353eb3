package main

// metricDef is one row of BENCHMARK.json; the unit tests hold the file
// and these tables equal, and newResult refuses a run whose metric set
// differs from them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

var workloadNames = []string{"alg1_sweep", "pgd_curves", "serve_requests", "stream_session"}

const (
	lower  = "lower"
	higher = "higher"
)

var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"work_per_s", "1/s", higher, 0.25},
	{"latency_ms", "ms", lower, 0.25},
	{"alloc_kb_per_op", "KB", lower, 0.05},
	{"allocs_per_op", "count", lower, 0.05},
}

// perLayer lists every traced metric. A workload that never enters a
// layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	// explore / train / modelio — traced alg1_sweep lap
	{"explore.train_s", "s", lower, 0},
	{"explore.gate_s", "s", lower, 0},
	{"explore.attack_s", "s", lower, 0},
	{"explore.parallel_efficiency", "ratio", higher, 0},
	{"explore.straggler_s", "s", lower, 0},
	{"modelio.snapshot_ms", "ms", lower, 0},
	{"modelio.snapshot_bytes", "B", lower, 0},
	{"train.optimizer_ms", "ms", lower, 0},

	// snn / autodiff / nn — step probes
	{"snn.forward_taped_ms", "ms", lower, 0},
	{"autodiff.backward_ms", "ms", lower, 0},
	{"snn.encode_ms", "ms", lower, 0},
	{"snn.lif_step_ms", "ms", lower, 0},
	{"snn.spike_density_in", "ratio", lower, 0},
	{"snn.spike_density_l1", "ratio", lower, 0},
	{"snn.spike_density_l2", "ratio", lower, 0},
	{"snn.spike_density_l3", "ratio", lower, 0},
	{"snn.spike_density_out", "ratio", lower, 0},
	{"autodiff.tape_alloc_kb_per_step", "KB", lower, 0},
	{"nn.cnn_forward_ms", "ms", lower, 0},
	{"nn.cnn_backward_ms", "ms", lower, 0},

	// tensor / compute — kernel probes
	{"tensor.conv_fwd_ms", "ms", lower, 0},
	{"tensor.conv_bwd_ms", "ms", lower, 0},
	{"tensor.spike_conv_fwd_ms", "ms", lower, 0},
	{"tensor.matmul_ms", "ms", lower, 0},
	{"tensor.spike_matmul_ms", "ms", lower, 0},
	{"tensor.pack_spikes_ms", "ms", lower, 0},
	{"compute.dispatch_sparse_share", "ratio", higher, 0},
	{"compute.parallel_speedup_conv", "ratio", higher, 0},
	{"compute.default_vs_serial_forward", "ratio", lower, 0},

	// attack — traced pgd_curves lap
	{"attack.perturb_s", "s", lower, 0},
	{"attack.eval_s", "s", lower, 0},
	{"attack.cnn_curve_s", "s", lower, 0},
	{"attack.grad_steps", "count", lower, 0},
	{"attack.adv_examples_per_s", "1/s", higher, 0},

	// serve / obs — traced serve_requests laps, probes, open-loop ladder
	{"serve.parse_us", "us", lower, 0},
	{"serve.transport_us", "us", lower, 0},
	{"serve.queue_wait_us", "us", lower, 0},
	{"serve.forward_us_per_sample", "us", lower, 0},
	{"serve.batch_size_mean", "count", higher, 0},
	{"serve.coalesced_calls_mean", "count", higher, 0},
	{"serve.engine_forward_ms_b1", "ms", lower, 0},
	{"serve.engine_forward_ms_b64", "ms", lower, 0},
	{"serve.p50_ms_r200", "ms", lower, 0},
	{"serve.p99_ms_r200", "ms", lower, 0},
	{"serve.p99_ms_r800", "ms", lower, 0},
	{"serve.rejected_share_r3200", "ratio", lower, 0},
	{"serve.knee_rps", "1/s", higher, 0},
	{"serve.generator_late_ms_max", "ms", lower, 0},
	{"obs.armed_overhead_pct", "%", lower, 0},

	// stream / dataset — traced stream_session laps and probes
	{"stream.bin_ns_per_event", "ns", lower, 0},
	{"stream.step_us_per_window", "us", lower, 0},
	{"stream.session_setup_us", "us", lower, 0},
	{"stream.window_p50_us", "us", lower, 0},
	{"stream.window_p99_us", "us", lower, 0},
	{"stream.events_per_window", "count", lower, 0},
	{"stream.silent_window_share", "ratio", lower, 0},
	{"stream.window_errors", "count", lower, 0},
	{"stream.events_per_s", "1/s", higher, 0},
	{"dataset.synth_gen_ms", "ms", lower, 0},
	{"dataset.event_gen_ns_per_event", "ns", lower, 0},

	// runtime / host — every workload
	{"runtime.gc_cycles_per_op", "count", lower, 0},
	{"runtime.gc_cpu_share", "ratio", lower, 0},
	{"runtime.peak_rss_mb", "MB", lower, 0},
	{"host.calib_ms", "ms", lower, 0},
	{"host.steal_pct", "%", lower, 0},
}
