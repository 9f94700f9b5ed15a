package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Client is a thin Go binding over the v1 HTTP job API. The zero HTTPClient
// means http.DefaultClient.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8517".
	Base string
	// HTTPClient overrides the transport (httptest servers, timeouts).
	HTTPClient *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// do issues one request and decodes the JSON body into out (errors decode
// the error document).
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode >= 400 {
		var ed errorDoc
		if derr := json.NewDecoder(resp.Body).Decode(&ed); derr == nil && ed.Error != "" {
			return fmt.Errorf("service client: %s %s: %s", method, path, ed.Error)
		}
		return fmt.Errorf("service client: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if resp.StatusCode == http.StatusAccepted && method == http.MethodGet {
		// GET result on an in-flight job.
		return ErrNotDone
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a job and returns its submission-time status (terminal
// already on a cache hit).
func (c *Client) Submit(ctx context.Context, req JobRequest) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches a job's current status document.
func (c *Client) Status(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// List fetches every retained job's status in submission order.
func (c *Client) List(ctx context.Context) ([]*JobStatus, error) {
	var doc struct {
		SchemaVersion string       `json:"schema_version"`
		Jobs          []*JobStatus `json:"jobs"`
	}
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &doc); err != nil {
		return nil, err
	}
	return doc.Jobs, nil
}

// Result fetches a finished job's result; ErrNotDone while it is in flight.
func (c *Client) Result(ctx context.Context, id string) (*JobResult, error) {
	var res JobResult
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Cancel stops a job and returns the post-cancel status.
func (c *Client) Cancel(ctx context.Context, id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Stats fetches the service counters.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	var st Stats
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Stream follows the job's chunked-JSON event feed, invoking fn for every
// event until the stream ends (terminal event delivered), fn returns false,
// or ctx is canceled.
func (c *Client) Stream(ctx context.Context, id string, fn func(Event) bool) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/jobs/"+id+"/stream"), nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		var ed errorDoc
		if derr := json.NewDecoder(resp.Body).Decode(&ed); derr == nil && ed.Error != "" {
			return fmt.Errorf("service client: stream %s: %s", id, ed.Error)
		}
		return fmt.Errorf("service client: stream %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			return fmt.Errorf("service client: stream %s: decode event: %w", id, err)
		}
		if !fn(e) {
			return nil
		}
	}
	return sc.Err()
}

// WaitResult blocks until the job finishes (following the event stream, so
// no polling) and returns its result document.
func (c *Client) WaitResult(ctx context.Context, id string) (*JobResult, error) {
	// A cache hit (or an already-finished job) needs no stream round trip.
	res, err := c.Result(ctx, id)
	if err == nil {
		return res, nil
	}
	if err != ErrNotDone && !strings.Contains(err.Error(), ErrNotDone.Error()) {
		return nil, err
	}
	err = c.Stream(ctx, id, func(e Event) bool { return !e.terminal() })
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return c.Result(ctx, id)
}
