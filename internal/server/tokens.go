package server

import (
	"errors"
	"fmt"
	"net/http"

	"provpriv/internal/auth"
	"provpriv/internal/repo"
)

// Token lifecycle endpoints (admin only): list the live token set,
// mint a token at runtime, revoke one. Mutations go through
// auth.Store, which swaps the set atomically (in-flight requests are
// untouched) and rewrites the operator's token file when one is
// configured — so a token minted over the wire survives a restart, and
// a revocation is effective on the next request, no restart needed.

// tokenRequest is the POST /api/v1/tokens body. Secret is optional:
// when omitted the server generates a 256-bit random secret and
// returns it once in the response — the only time it ever crosses the
// wire southbound — which is the recommended flow (client-chosen
// secrets risk low entropy; see internal/auth).
type tokenRequest struct {
	Name   string `json:"name"`
	User   string `json:"user"`
	Role   string `json:"role"`
	Secret string `json:"secret,omitempty"`
}

// handleListTokens serves the live token set's stats (names, users,
// roles, use counters — never secret material).
func (s *Server) handleListTokens(w http.ResponseWriter, r *http.Request, user string) {
	if s.Auth == nil {
		s.fail(w, r, fmt.Errorf("server: token auth not configured"))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"tokens": s.Auth.Stats()})
}

// handleAddToken mints a token: validates, registers it in the live
// set, persists the token file. 409 on a duplicate name; 400 on a name or
// user the token file could not carry back (auth.New decides).
func (s *Server) handleAddToken(w http.ResponseWriter, r *http.Request, user string) {
	if s.Auth == nil {
		s.fail(w, r, fmt.Errorf("server: token auth not configured"))
		return
	}
	var req tokenRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.fail(w, r, err)
		return
	}
	role, err := auth.ParseRole(req.Role)
	if err != nil {
		s.fail(w, r, err)
		return
	}
	setAuditTarget(w, req.Name)
	secret := req.Secret
	generated := secret == ""
	if generated {
		if secret, err = auth.NewSecret(); err != nil {
			s.fail(w, r, err)
			return
		}
	}
	if err := s.Auth.Add(req.Name, req.User, role, secret); err != nil {
		if errors.Is(err, auth.ErrTokenExists) {
			err = fmt.Errorf("server: token %q: %w", req.Name, repo.ErrExists)
		}
		s.fail(w, r, err)
		return
	}
	body := map[string]any{"name": req.Name, "user": req.User, "role": role.String()}
	if generated {
		// Echo only secrets we minted; a client-supplied secret is
		// already known to the client and never reflected.
		body["secret"] = secret
	}
	s.mutated(w, http.StatusCreated, body)
}

// handleRemoveToken revokes a token by name. In-flight requests that
// already authenticated with it finish; the next request fails 401.
func (s *Server) handleRemoveToken(w http.ResponseWriter, r *http.Request, user string) {
	if s.Auth == nil {
		s.fail(w, r, fmt.Errorf("server: token auth not configured"))
		return
	}
	name := r.PathValue("name")
	setAuditTarget(w, name)
	if err := s.Auth.Remove(name); err != nil {
		if errors.Is(err, auth.ErrTokenNotFound) {
			err = fmt.Errorf("server: token %q: %w", name, repo.ErrNotFound)
		}
		s.fail(w, r, err)
		return
	}
	s.mutated(w, http.StatusOK, map[string]any{"removed": name})
}
