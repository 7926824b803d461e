package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"provpriv/internal/privacy"
)

// oracle checks every answer against the generated corpus with the
// public policy API only; it knows nothing about the engine's caches.
// Under policy churn a spec may serve under any of its variants: an
// answer passes if it is right and leak-free under one of them.
type oracle struct {
	c     *corpus
	churn bool
}

// live lists the policies a spec may currently serve under; its indexes
// are those of se.pols and se.visible.
func (o *oracle) live(se *specEntry) []*privacy.Policy {
	if o.churn {
		return se.pols
	}
	return se.pols[:1]
}

// verdict is the outcome of checking one response.
type verdict struct {
	failed bool // status other than the oracle's expectation
	denied bool // an expected 403
	leaks  int
	why    string
}

// Wire shapes of the read endpoints (internal/server's JSON).
type wireSearch struct {
	Hits []struct {
		Spec    string   `json:"spec"`
		Prefix  []string `json:"prefix"`
		Matches []struct {
			Module string `json:"module"`
		} `json:"matches"`
	} `json:"hits"`
}

type wireQuery struct {
	Answers []struct {
		Bindings []map[string]string `json:"bindings"`
	} `json:"answers"`
}

type wireProvenance struct {
	Provenance struct {
		Items map[string]struct {
			Attr     string `json:"attr"`
			Value    string `json:"value"`
			Redacted bool   `json:"redacted"`
		} `json:"items"`
	} `json:"provenance"`
}

// check verifies one response: the status against the expectation, and
// the body against the three internal/sim leak checks plus the taint
// invariant.
func (o *oracle) check(r *request, status int, body []byte) verdict {
	switch r.kind {
	case kSearch:
		if status != 200 {
			return verdict{failed: true, why: fmt.Sprintf("search status %d", status)}
		}
		var w wireSearch
		if err := json.Unmarshal(body, &w); err != nil {
			return verdict{failed: true, why: "search body: " + err.Error()}
		}
		v := verdict{}
		for _, h := range w.Hits {
			se := o.c.specs[h.Spec]
			if se == nil {
				v.leaks++
				v.why = "search hit on unknown spec " + h.Spec
				continue
			}
			best := -1
			for _, pol := range o.live(se) {
				n := searchHitLeaks(se, pol, r.level, h.Prefix, h.Matches)
				if best < 0 || n < best {
					best = n
				}
			}
			if best > 0 {
				v.leaks += best
				v.why = fmt.Sprintf("search hit on %s exceeds level %s", h.Spec, r.level)
			}
		}
		return v
	case kQuery, kQueryAll:
		if status != 200 {
			return verdict{failed: true, why: fmt.Sprintf("query status %d", status)}
		}
		var w wireQuery
		if err := json.Unmarshal(body, &w); err != nil {
			return verdict{failed: true, why: "query body: " + err.Error()}
		}
		se := o.c.specs[r.spec]
		best := -1
		for _, pol := range o.live(se) {
			n := 0
			access := pol.AccessView(se.hier, r.level)
			for _, a := range w.Answers {
				for _, b := range a.Bindings {
					for _, node := range b {
						m := moduleOfNode(node)
						if !pol.CanSeeModule(r.level, m) || !access.Contains(se.moduleWorkflow[m]) {
							n++
						}
					}
				}
			}
			if best < 0 || n < best {
				best = n
			}
		}
		if best > 0 {
			return verdict{leaks: best, why: fmt.Sprintf("query on %s binds a module hidden at %s", r.spec, r.level)}
		}
		return verdict{}
	case kProvenance:
		return o.checkProvenance(r, status, body)
	case kAddExec, kAddSpec:
		return wantStatus(status, 201)
	default:
		return wantStatus(status, 200)
	}
}

func wantStatus(got, want int) verdict {
	if got != want {
		return verdict{failed: true, why: fmt.Sprintf("status %d, want %d", got, want)}
	}
	return verdict{}
}

// searchHitLeaks is internal/sim's checkSearchLeaks over the wire form:
// the minimal-view prefix must lie inside the access view and every
// matched module must pass module privacy.
func searchHitLeaks(se *specEntry, pol *privacy.Policy, l privacy.Level, prefix []string, matches []struct {
	Module string `json:"module"`
}) int {
	n := 0
	access := pol.AccessView(se.hier, l)
	for _, wid := range prefix {
		if !access.Contains(wid) {
			n++
		}
	}
	for _, m := range matches {
		if !pol.CanSeeModule(l, m.Module) {
			n++
		}
	}
	return n
}

// checkProvenance: a visible item answers 200 with every item the
// caller may not see redacted and no value embedding `attr=<raw>` of a
// protected ancestor; a hidden item answers 403 (no existence oracle).
func (o *oracle) checkProvenance(r *request, status int, body []byte) verdict {
	se := o.c.specs[r.spec]
	full := se.byID[r.exec].Items
	var w wireProvenance
	if status == 200 {
		if err := json.Unmarshal(body, &w); err != nil {
			return verdict{failed: true, why: "provenance body: " + err.Error()}
		}
	}
	best := verdict{failed: true, why: fmt.Sprintf("provenance of %s/%s/%s at %s: status %d fits no live policy", r.spec, r.exec, r.item, r.level, status)}
	for p, pol := range o.live(se) {
		visible := false
		for _, id := range se.visible[p][r.level] {
			visible = visible || id == r.item
		}
		if !visible {
			if status == 403 {
				return verdict{denied: true}
			}
			continue
		}
		if status != 200 {
			continue
		}
		v := verdict{}
		for id, it := range w.Provenance.Items {
			if !pol.CanSeeData(r.level, it.Attr) && !it.Redacted {
				v.leaks++
				v.why = fmt.Sprintf("item %s (%s) not redacted at %s", id, it.Attr, r.level)
			}
			for _, anc := range se.ancestors[id] {
				attr, raw := full[anc].Attr, string(full[anc].Value)
				if pol.DataLevels[attr] > r.level && raw != "" && strings.Contains(it.Value, attr+"="+raw+";") {
					v.leaks++
					v.why = fmt.Sprintf("item %s embeds protected ancestor %s=%q at %s", id, attr, raw, r.level)
				}
			}
		}
		if v.leaks == 0 {
			return v
		}
		best = v
	}
	return best
}

// digestBody is what a response contributes to the run digest: the body,
// or for an error envelope only its message (the request id differs on
// every run).
func digestBody(status int, body []byte) []byte {
	if status < 400 {
		return body
	}
	var env struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &env) == nil {
		return []byte(env.Error)
	}
	return body
}

// digest is a running SHA-256 over one client's ordered (request,
// status, body) triples.
type digest struct{ h [sha256.Size]byte }

func (d *digest) add(path string, status int, body []byte) {
	h := sha256.New()
	h.Write(d.h[:])
	fmt.Fprintf(h, "%s\n%d\n", path, status)
	h.Write(digestBody(status, body))
	copy(d.h[:], h.Sum(nil))
}

func (d *digest) String() string { return hex.EncodeToString(d.h[:]) }
