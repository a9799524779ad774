package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"specweb/internal/loadgen"
)

// tinyJob is a fast distributed work order over the tiny site.
func tinyJob(stream bool) jobSpec {
	return jobSpec{
		Schema:       jobSchema,
		Profile:      "tiny",
		Days:         2,
		Sessions:     30,
		Seed:         7,
		Workers:      3,
		Warmup:       0.3,
		Mode:         "push",
		MaxPush:      8,
		Prefetch:     0.25,
		SessionGap:   50,
		Overload:     true,
		Stream:       stream,
		WithBaseline: true,
	}
}

// TestJobSpecWireRoundTrip: the job survives JSON intact and rebuilds the
// identical loadgen config on the far side — the property the merge-time
// config-identity check depends on.
func TestJobSpecWireRoundTrip(t *testing.T) {
	job := tinyJob(true)
	data, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	var back jobSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(job, back) {
		t.Fatalf("job changed over the wire:\nsent %+v\ngot  %+v", job, back)
	}
	a, err := job.config()
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.config()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("decoded job built a different config")
	}
}

// TestCoordinatorWorkersByteIdentity is the distributed smoke: a
// coordinator sharding across two in-process workers must merge to the
// byte-identical deterministic report of a single-process run — for both
// the materialized and the streamed drive, with the baseline arm and
// overload control on.
func TestCoordinatorWorkersByteIdentity(t *testing.T) {
	for _, stream := range []bool{false, true} {
		t.Run(map[bool]string{false: "materialized", true: "streamed"}[stream], func(t *testing.T) {
			mux := workerMux(nil)
			w1 := httptest.NewServer(mux)
			defer w1.Close()
			w2 := httptest.NewServer(mux)
			defer w2.Close()

			job := tinyJob(stream)
			rep, err := coordinate(job, []string{w1.URL, w2.URL}, w1.Client())
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.DeterministicJSON()
			if err != nil {
				t.Fatal(err)
			}

			cfg, err := job.config()
			if err != nil {
				t.Fatal(err)
			}
			single, err := loadgen.RunReport(cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			want, err := single.DeterministicJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("distributed merge diverged from single-process run:\n%s\n--- vs ---\n%s", got, want)
			}
		})
	}
}

// TestWorkerRejectsBadJobs: schema skew and invalid configs come back as
// 4xx with a reason, never a half-run partial.
func TestWorkerRejectsBadJobs(t *testing.T) {
	srv := httptest.NewServer(workerMux(nil))
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := srv.Client().Post(srv.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := post(`{"schema":"specbench-job/999"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("schema skew: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	bad := tinyJob(false)
	bad.Mode = "telepathy"
	data, _ := json.Marshal(bad)
	resp = post(string(data))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad mode: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	if resp, err := srv.Client().Get(srv.URL + "/run"); err == nil {
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /run: status %d, want 405", resp.StatusCode)
		}
		resp.Body.Close()
	}

	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz failed: %v %v", err, resp)
	}
	if resp != nil {
		resp.Body.Close()
	}
}
