// Package client implements SeGShare's user application (paper §IV-B): it
// links a user's local machine to the remote file system over a TLS
// connection that terminates inside the enclave. The client stores only
// its certificate and private key — constant client storage regardless of
// files, permissions, or group memberships (objective P1) — and needs no
// special hardware (F5).
package client

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"

	"segshare/internal/ca"
	"segshare/internal/core"
)

// Client errors, mapped back from HTTP statuses so callers can use
// errors.Is against the same sentinels the server uses.
var (
	// ErrUnauthorized is returned when the TLS identity is rejected.
	ErrUnauthorized = errors.New("client: unauthorized")
)

// Config configures a client.
type Config struct {
	// Addr is the server's host:port.
	Addr string
	// ServerName is the expected name in the server certificate
	// (defaults to "localhost").
	ServerName string
	// CACertPEM is the trusted CA certificate; the client verifies the
	// enclave's server certificate against it (paper §IV-A: remote
	// attestation by users is unnecessary).
	CACertPEM []byte
	// Credential is the user's client certificate and key.
	Credential *ca.Credential
	// DialContext optionally overrides the TCP dialer, e.g. to simulate
	// network conditions in benchmarks.
	DialContext func(ctx context.Context, network, addr string) (net.Conn, error)
}

// Client is a SeGShare user application.
type Client struct {
	base string
	http *http.Client
}

// New builds a client from the configuration.
func New(cfg Config) (*Client, error) {
	if cfg.Addr == "" {
		return nil, errors.New("client: missing server address")
	}
	if cfg.Credential == nil {
		return nil, errors.New("client: missing credential")
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(cfg.CACertPEM) {
		return nil, errors.New("client: invalid CA certificate PEM")
	}
	cert, err := cfg.Credential.TLSCertificate()
	if err != nil {
		return nil, fmt.Errorf("client: load credential: %w", err)
	}
	serverName := cfg.ServerName
	if serverName == "" {
		serverName = "localhost"
	}
	transport := &http.Transport{
		TLSClientConfig: &tls.Config{
			RootCAs:      pool,
			Certificates: []tls.Certificate{cert},
			ServerName:   serverName,
			MinVersion:   tls.VersionTLS12,
		},
		// Each client keeps one warm connection; SeGShare reuses the
		// secure channel for all subsequent communication (paper §I).
		MaxIdleConnsPerHost: 2,
	}
	if cfg.DialContext != nil {
		transport.DialContext = cfg.DialContext
	}
	return &Client{
		base: "https://" + cfg.Addr,
		http: &http.Client{Transport: transport},
	}, nil
}

// Close releases idle connections.
func (c *Client) Close() {
	c.http.CloseIdleConnections()
}

func (c *Client) fsURL(path string) string { return c.base + core.FSPrefix + path }

func (c *Client) do(req *http.Request, wantStatus ...int) (*http.Response, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", req.Method, req.URL.Path, err)
	}
	for _, want := range wantStatus {
		if resp.StatusCode == want {
			return resp, nil
		}
	}
	defer resp.Body.Close()
	return nil, decodeError(resp)
}

func decodeError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&body); err == nil && body.Error != "" {
		msg = body.Error
	}
	var sentinel error
	switch resp.StatusCode {
	case http.StatusUnauthorized:
		sentinel = ErrUnauthorized
	case http.StatusForbidden:
		sentinel = core.ErrPermissionDenied
	case http.StatusNotFound:
		sentinel = core.ErrNotFound
	case http.StatusConflict:
		sentinel = core.ErrExists
	case http.StatusBadRequest:
		sentinel = core.ErrBadRequest
	case http.StatusRequestEntityTooLarge:
		sentinel = core.ErrTooLarge
	case http.StatusServiceUnavailable:
		// Shed by admission control, draining, or degraded read-only
		// mode; the server sets Retry-After on all of them.
		sentinel = core.ErrOverloaded
	default:
		return fmt.Errorf("client: server error: %s", msg)
	}
	return fmt.Errorf("%w: %s", sentinel, msg)
}

// Upload creates or updates the content file at path.
func (c *Client) Upload(path string, content []byte) error {
	return c.UploadStream(path, bytes.NewReader(content), int64(len(content)))
}

// UploadStream streams content from r (of the given length; -1 if
// unknown) to the file at path.
func (c *Client) UploadStream(path string, r io.Reader, length int64) error {
	req, err := http.NewRequest(http.MethodPut, c.fsURL(path), r)
	if err != nil {
		return err
	}
	if length >= 0 {
		req.ContentLength = length
	}
	resp, err := c.do(req, http.StatusCreated, http.StatusNoContent)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// maxPresized caps the buffer Download allocates up front from a
// response's Content-Length; a longer body grows its buffer as it
// arrives, so a lying header cannot make the client allocate at will.
const maxPresized = 64 << 20

// Download returns the content of the file at path. A body of known
// length is read into one exactly sized buffer.
func (c *Client) Download(path string) ([]byte, error) {
	resp, err := c.getFile(path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var data []byte
	if n := resp.ContentLength; n >= 0 && n <= maxPresized {
		data = make([]byte, n)
		_, err = io.ReadFull(resp.Body, data)
	} else {
		var buf bytes.Buffer
		_, err = buf.ReadFrom(resp.Body)
		data = buf.Bytes()
	}
	if err != nil {
		return nil, fmt.Errorf("client: download %s: %w", path, err)
	}
	return data, nil
}

// DownloadTo streams the file at path into w.
func (c *Client) DownloadTo(path string, w io.Writer) error {
	resp, err := c.getFile(path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(w, resp.Body); err != nil {
		return fmt.Errorf("client: download %s: %w", path, err)
	}
	return nil
}

// getFile issues a GET for the file at path and returns the 200 response.
func (c *Client) getFile(path string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, c.fsURL(path), nil)
	if err != nil {
		return nil, err
	}
	return c.do(req, http.StatusOK)
}

// Mkdir creates the directory at path (which must end in "/").
func (c *Client) Mkdir(path string) error {
	req, err := http.NewRequest("MKCOL", c.fsURL(path), nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req, http.StatusCreated)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// List returns the listing of the directory at path.
func (c *Client) List(path string) (*core.Listing, error) {
	if !strings.HasSuffix(path, "/") {
		return nil, fmt.Errorf("%w: listing requires a directory path", core.ErrBadRequest)
	}
	req, err := http.NewRequest(http.MethodGet, c.fsURL(path), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var listing core.Listing
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		return nil, fmt.Errorf("client: decode listing: %w", err)
	}
	return &listing, nil
}

// Remove deletes the file or empty directory at path.
func (c *Client) Remove(path string) error {
	req, err := http.NewRequest(http.MethodDelete, c.fsURL(path), nil)
	if err != nil {
		return err
	}
	resp, err := c.do(req, http.StatusNoContent)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// Move relocates a file or directory subtree.
func (c *Client) Move(src, dst string) error {
	req, err := http.NewRequest("MOVE", c.fsURL(src), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Destination", core.FSPrefix+dst)
	resp, err := c.do(req, http.StatusCreated)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

func (c *Client) postAPI(route string, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+"/api/"+route, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req, http.StatusNoContent)
	if err != nil {
		return err
	}
	resp.Body.Close()
	return nil
}

// SetPermission sets group's permission ("r", "w", "rw", "deny", or
// "none" to clear) on the file or directory at path. To grant an
// individual user, pass their default group "user:<id>" (paper Table I).
func (c *Client) SetPermission(path, group, permission string) error {
	return c.postAPI("permission", map[string]any{
		"path": path, "group": group, "permission": permission,
	})
}

// SetInherit toggles permission inheritance from the parent directory.
func (c *Client) SetInherit(path string, inherit bool) error {
	return c.postAPI("inherit", map[string]any{"path": path, "inherit": inherit})
}

// SetOwner adds (owner=true) or removes a group as owner of the file.
func (c *Client) SetOwner(path, group string, owner bool) error {
	return c.postAPI("owner", map[string]any{"path": path, "group": group, "owner": owner})
}

// AddUser adds a user to a group, creating the group on first use (the
// caller becomes member and owner).
func (c *Client) AddUser(user, group string) error {
	return c.postAPI("groups/add", map[string]any{"user": user, "group": group})
}

// RemoveUser removes a user from a group — an immediate membership
// revocation.
func (c *Client) RemoveUser(user, group string) error {
	return c.postAPI("groups/remove", map[string]any{"user": user, "group": group})
}

// SetGroupOwner adds or removes ownerGroup as an owner of group.
func (c *Client) SetGroupOwner(group, ownerGroup string, owner bool) error {
	return c.postAPI("groups/owner", map[string]any{
		"group": group, "ownerGroup": ownerGroup, "owner": owner,
	})
}

// DeleteGroup deletes a group entirely.
func (c *Client) DeleteGroup(group string) error {
	return c.postAPI("groups/delete", map[string]any{"group": group})
}

// WhoAmI returns the identity the server derived from the client
// certificate, plus current group memberships.
func (c *Client) WhoAmI() (*core.WhoAmI, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/api/whoami", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req, http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var who core.WhoAmI
	if err := json.NewDecoder(resp.Body).Decode(&who); err != nil {
		return nil, fmt.Errorf("client: decode whoami: %w", err)
	}
	return &who, nil
}
