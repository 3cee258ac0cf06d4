package main

// HTTP plumbing shared by the estimate workloads: an in-process service
// on a loopback listener (as eflserved runs it) and the closed-loop
// client.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"efl/internal/service"
)

// server is a service.Server behind a real loopback listener.
type server struct {
	svc  *service.Server
	srv  *http.Server
	url  string
	done chan struct{}
}

func startServer(opts service.Options) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{svc: service.New(opts), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.srv = &http.Server{Handler: s.svc.Handler()}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

// close stops the listener, waits for the serve loop, then drains the
// service.
func (s *server) close() {
	s.srv.Close()
	<-s.done
	s.svc.Close()
}

// newClient returns the single client's keep-alive HTTP client.
func newClient() *http.Client {
	return &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
}

// reply is one HTTP exchange's outcome.
type reply struct {
	status int
	body   []byte
	route  string // X-Cluster-Route, when a fleet node answered
}

func post(c *http.Client, url string, body []byte) (reply, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: data, route: resp.Header.Get("X-Cluster-Route")}, nil
}

// checkedPost posts one estimate and checks the outcome against refs.
// Transport errors, 5xx and 429 are failures whatever the reference says.
func checkedPost(c *http.Client, url string, e estimate, refs *refTable) (reply, error) {
	rp, err := post(c, url, e.Body)
	if err != nil {
		return rp, fmt.Errorf("%s: %v", e.ID, err)
	}
	if rp.status == http.StatusTooManyRequests || rp.status >= 500 {
		return rp, fmt.Errorf("%s: HTTP %d %s", e.ID, rp.status, bytes.TrimSpace(rp.body))
	}
	return rp, refs.check(e.ID, rp.status, rp.body)
}

// uploadTraces posts every trace to url's /v1/trace.
func uploadTraces(c *http.Client, url string, ts traceSet) error {
	for i, data := range ts.data {
		rp, err := post(c, url+"/v1/trace", data)
		if err != nil {
			return fmt.Errorf("upload trace %s: %w", traceSpecs[i].Name, err)
		}
		if rp.status != http.StatusOK {
			return fmt.Errorf("upload trace %s: HTTP %d %s", traceSpecs[i].Name, rp.status, rp.body)
		}
	}
	return nil
}
