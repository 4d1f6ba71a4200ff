package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"robustqo/internal/plancache"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, err := newServer(5000, "robust", 0.8, 500, 2005, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestServeQueryMetricsAndPprof(t *testing.T) {
	ts := testServer(t)

	// Fresh server: metrics exist but empty, index names the endpoints.
	code, body := get(t, ts.URL+"/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: code %d body %q", code, body)
	}

	sql := url.QueryEscape("SELECT l_id FROM lineitem WHERE l_shipdate BETWEEN DATE '1997-07-01' AND DATE '1997-09-30' LIMIT 3")
	code, body = get(t, ts.URL+"/query?analyze=1&sql="+sql)
	if code != http.StatusOK {
		t.Fatalf("query: code %d body %q", code, body)
	}
	for _, want := range []string{"EXPLAIN ANALYZE:", "est=", "act=", "T=80%", "(3 rows)"} {
		if !strings.Contains(body, want) {
			t.Errorf("query response missing %q:\n%s", want, body)
		}
	}

	// Per-request threshold: the T annotation follows the URL parameter.
	code, body = get(t, ts.URL+"/query?analyze=1&threshold=0.95&sql="+sql)
	if code != http.StatusOK || !strings.Contains(body, "T=95%") {
		t.Errorf("threshold override: code %d body:\n%s", code, body)
	}

	// Both queries landed in the registry.
	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	for _, want := range []string{
		"robustqo_queries_total 2",
		"robustqo_rows_returned_total 6",
		`robustqo_plans_total{order="lineitem",t="0.8"} 1`,
		`robustqo_plans_total{order="lineitem",t="0.95"} 1`,
		`robustqo_qerror_count{op="Limit"} 2`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: code %d", code)
	}
}

func TestServeLedgerAndQueriesEndpoints(t *testing.T) {
	ts := testServer(t)

	// Empty state renders, with zero counts.
	code, body := get(t, ts.URL+"/debug/ledger")
	if code != http.StatusOK || !strings.Contains(body, "0 fingerprints, 0 observations") {
		t.Fatalf("empty ledger: code %d body %q", code, body)
	}
	code, body = get(t, ts.URL+"/debug/queries")
	if code != http.StatusOK || !strings.Contains(body, "0 in-flight queries") {
		t.Fatalf("empty queries: code %d body %q", code, body)
	}

	// A query feeds the ledger: its scan fingerprint shows up with the
	// value-binned literal, and the drift table attributes it to lineitem.
	sql := url.QueryEscape("SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10")
	if code, body := get(t, ts.URL+"/query?sql="+sql); code != http.StatusOK {
		t.Fatalf("query: code %d body %q", code, body)
	}
	code, body = get(t, ts.URL+"/debug/ledger?n=5")
	if code != http.StatusOK {
		t.Fatalf("ledger: code %d", code)
	}
	for _, want := range []string{"lineitem|l_quantity<b4", "per-table drift:", "lineitem"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/ledger missing %q:\n%s", want, body)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/ledger?n=nope")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest ||
		!strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") ||
		!strings.Contains(string(raw), `"code":"bad_n"`) {
		t.Errorf("bad n: code %d, content type %q, body %q; want a 400 JSON bad_n error",
			resp.StatusCode, resp.Header.Get("Content-Type"), raw)
	}

	// The ledger and latency series land in /metrics.
	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: code %d", code)
	}
	for _, want := range []string{
		"robustqo_ledger_appends_total",
		"robustqo_ledger_qerror_count",
		"robustqo_query_latency_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestServeQueryErrors(t *testing.T) {
	s, err := newServer(5000, "robust", 0.8, 500, 2005, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A 100-row memory budget admits the LIMIT 1 probes below and rejects
	// a full lineitem scan before it executes.
	s.pipe.Admission = plancache.NewAdmission(plancache.AdmissionConfig{MemBudgetRows: 100},
		defaultAdmissionSlots(), s.pipe.Metrics)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()
	for _, tc := range []struct {
		name, path string
		status     int
		code       string
	}{
		{"missing sql", "/query", http.StatusBadRequest, "missing_sql"},
		{"bad sql", "/query?sql=" + url.QueryEscape("DELETE FROM lineitem"), http.StatusBadRequest, "parse_error"},
		{"bad threshold", "/query?threshold=nope&sql=" + url.QueryEscape("SELECT * FROM lineitem LIMIT 1"), http.StatusBadRequest, "bad_threshold"},
		{"threshold out of range", "/query?threshold=1.5&sql=" + url.QueryEscape("SELECT * FROM lineitem LIMIT 1"), http.StatusBadRequest, "bad_threshold"},
		{"unknown table", "/query?sql=" + url.QueryEscape("SELECT * FROM ghost"), http.StatusBadRequest, "optimize_error"},
		{"over memory budget", "/query?sql=" + url.QueryEscape("SELECT l_id FROM lineitem"), http.StatusTooManyRequests, "mem_budget"},
	} {
		if status, body := get(t, ts.URL+tc.path); status != tc.status || !strings.Contains(body, `"code":"`+tc.code+`"`) {
			t.Errorf("%s: status %d body %q, want %d %s", tc.name, status, body, tc.status, tc.code)
		}
	}
	if got := s.pipe.Metrics.Counter("robustqo_admission_mem_rejects_total").Value(); got != 1 {
		t.Errorf("mem_rejects counter = %d, want 1", got)
	}
	if code, _ := get(t, ts.URL+"/nope"); code != http.StatusNotFound {
		t.Errorf("unknown path not 404: %d", code)
	}
}
