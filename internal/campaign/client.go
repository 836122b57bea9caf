package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Client talks to a campaign server's v1 API.
type Client struct {
	// Base is the server's base URL, e.g. "http://localhost:9190".
	Base string
	// HTTP overrides the transport (http.DefaultClient when nil).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.http().Do(req)
}

// maxReportBytes bounds the report bytes a client reads from a server.
// A report's only variable-length field is FaultSim's FirstDetected, one
// entry per collapsed fault. Named circuits have under 2000 faults. An
// inline netlist spends at least one byte of .bench text per fault (a
// line defining a gate with k inputs takes 2k+5 bytes or more and adds
// at most 2k+2 faults), so a spec within maxSpecBytes (1 MiB) names at
// most 1<<20 faults. Each entry encodes in at most 6 bytes, as detection
// indices stay below maxHorizon (1<<16): at most 6 MiB, plus well under
// 1 KB of fixed fields. 16 MiB leaves more than twice that.
const maxReportBytes = 16 << 20

// readReport reads a 200 response's report bytes, refusing a body past
// maxReportBytes.
func readReport(resp *http.Response) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxReportBytes+1))
	if err != nil {
		return nil, err
	}
	if len(b) > maxReportBytes {
		return nil, fmt.Errorf("campaign: server reply exceeds %d bytes", maxReportBytes)
	}
	return b, nil
}

// fail drains an error response into an error value.
func fail(resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("campaign: server returned %s: %s", resp.Status, bytes.TrimSpace(b))
}

// call sends one request and decodes the JSON of a 200 response into out.
func (c *Client) call(ctx context.Context, method, path string, body, out any) error {
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fail(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit registers a job and returns its initial status; a cache hit
// comes back already done.
func (c *Client) Submit(ctx context.Context, sp Spec) (*JobStatus, error) {
	st := new(JobStatus)
	if err := c.call(ctx, http.MethodPost, "/v1/jobs", sp, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	st := new(JobStatus)
	if err := c.call(ctx, http.MethodGet, "/v1/jobs/"+id, nil, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Result fetches a finished job's canonical report bytes.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fail(resp)
	}
	return readReport(resp)
}

// Cancel asks the server to cancel a job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fail(resp)
	}
	return nil
}

// Wait polls a job until it leaves the pending/running states and
// returns its final status (nil error even for failed jobs — the state
// tells). Poll defaults to 100ms.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		switch jobState(st.State) {
		case statePending, stateRunning:
		default:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(poll):
		}
	}
}

// Execute runs one spec synchronously on the server and returns the
// canonical report bytes plus whether the server served it from cache.
func (c *Client) Execute(ctx context.Context, sp Spec) (report []byte, cached bool, err error) {
	resp, err := c.do(ctx, http.MethodPost, "/v1/execute", sp)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false, fail(resp)
	}
	b, err := readReport(resp)
	if err != nil {
		return nil, false, err
	}
	return b, resp.Header.Get("X-Repro-Cache") == "hit", nil
}

// Stats fetches the server's cache and job counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	st := new(Stats)
	if err := c.call(ctx, http.MethodGet, "/v1/stats", nil, st); err != nil {
		return nil, err
	}
	return st, nil
}
