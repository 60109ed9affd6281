package obs

import (
	"strings"
	"testing"
)

// exportFixture is a registry holding every metric kind the exporters
// render: a counter family with two label sets, a counter without help,
// a gauge, a nanosecond histogram with one exemplar and a native-unit
// histogram with a label and a help text that needs sanitizing.
func exportFixture() *Registry {
	reg := NewRegistry()
	reg.Counter("segshare_requests_total", "Requests by class.", Labels{"op": "fs_get"}).Add(3)
	reg.Counter("segshare_requests_total", "Requests by class.", Labels{"op": "fs_put"}).Add(1)
	reg.Counter("segshare_plain_total", "", nil).Inc()
	reg.Gauge("segshare_active", "Active now.", nil).Set(-2)
	h := reg.Histogram("segshare_req_ns", "Latency.", Labels{"op": "fs_get"})
	h.Observe(0)
	h.Observe(5)
	h.ObserveWithExemplar(3, 42)
	h.exemplars.Load().slots[BucketIndex(3)].Load().TimeUnixMs = 1700000000123
	d := reg.Histogram("segshare_tree_depth", "Depth\\of the\ntree.", Labels{"store": "content"})
	d.Observe(2)
	d.ObserveWithExemplar(9, 7)
	d.exemplars.Load().slots[BucketIndex(9)].Load().TimeUnixMs = 1700000000456
	return reg
}

// The Prometheus and OpenMetrics renderings of exportFixture, byte for
// byte: the two formats share one renderer, and these pin that it still
// writes exactly what each format wrote on its own.
const wantPrometheus = `# HELP segshare_active Active now.
# TYPE segshare_active gauge
segshare_active -2
# TYPE segshare_plain_total counter
segshare_plain_total 1
# HELP segshare_req_seconds Latency.
# TYPE segshare_req_seconds histogram
segshare_req_seconds_bucket{op="fs_get",le="0"} 1
segshare_req_seconds_bucket{op="fs_get",le="3e-09"} 2
segshare_req_seconds_bucket{op="fs_get",le="7e-09"} 3
segshare_req_seconds_bucket{op="fs_get",le="+Inf"} 3
segshare_req_seconds_sum{op="fs_get"} 8e-09
segshare_req_seconds_count{op="fs_get"} 3
# HELP segshare_requests_total Requests by class.
# TYPE segshare_requests_total counter
segshare_requests_total{op="fs_get"} 3
segshare_requests_total{op="fs_put"} 1
# HELP segshare_tree_depth Depth\\of the\ntree.
# TYPE segshare_tree_depth histogram
segshare_tree_depth_bucket{store="content",le="3"} 1
segshare_tree_depth_bucket{store="content",le="15"} 2
segshare_tree_depth_bucket{store="content",le="+Inf"} 2
segshare_tree_depth_sum{store="content"} 11
segshare_tree_depth_count{store="content"} 2
`

const wantOpenMetrics = `# HELP segshare_active Active now.
# TYPE segshare_active gauge
segshare_active -2
# TYPE segshare_plain counter
segshare_plain_total 1
# HELP segshare_req_seconds Latency.
# TYPE segshare_req_seconds histogram
segshare_req_seconds_bucket{op="fs_get",le="0"} 1
segshare_req_seconds_bucket{op="fs_get",le="3e-09"} 2 # {trace_id="42"} 3e-09 1700000000.123
segshare_req_seconds_bucket{op="fs_get",le="7e-09"} 3
segshare_req_seconds_bucket{op="fs_get",le="+Inf"} 3
segshare_req_seconds_sum{op="fs_get"} 8e-09
segshare_req_seconds_count{op="fs_get"} 3
# HELP segshare_requests Requests by class.
# TYPE segshare_requests counter
segshare_requests_total{op="fs_get"} 3
segshare_requests_total{op="fs_put"} 1
# HELP segshare_tree_depth Depth\\of the\ntree.
# TYPE segshare_tree_depth histogram
segshare_tree_depth_bucket{store="content",le="3"} 1
segshare_tree_depth_bucket{store="content",le="15"} 2 # {trace_id="7"} 9 1700000000.456
segshare_tree_depth_bucket{store="content",le="+Inf"} 2
segshare_tree_depth_sum{store="content"} 11
segshare_tree_depth_count{store="content"} 2
# EOF
`

func TestExportFormatsGolden(t *testing.T) {
	reg := exportFixture()
	for _, tc := range []struct {
		name  string
		write func(*strings.Builder) error
		want  string
	}{
		{"prometheus", func(b *strings.Builder) error { return reg.WritePrometheus(b) }, wantPrometheus},
		{"openmetrics", func(b *strings.Builder) error { return reg.WriteOpenMetrics(b) }, wantOpenMetrics},
	} {
		var b strings.Builder
		if err := tc.write(&b); err != nil {
			t.Fatal(err)
		}
		if got := b.String(); got != tc.want {
			t.Errorf("%s rendering differs:\n got:\n%s\nwant:\n%s", tc.name, got, tc.want)
		}
	}
}
