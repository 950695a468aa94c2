package ctlplane

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"akamaidns/internal/dnswire"
	"akamaidns/internal/zone"
)

// The HTTP surface mounts on the debug/metrics listener: operators (and the
// churn harness) submit changelists as JSON carrying master-file zone text,
// and poll plans by ID. It is a control-plane sidecar, never the query path.

// maxChangelistBody bounds a POST body (a full changelist of master-file
// text) at 64 MiB.
const maxChangelistBody = 64 << 20

// maxRenderedChanges caps per-zone RRset changes rendered into JSON so a
// 100k-record plan documents itself without shipping 100k lines.
const maxRenderedChanges = 32

// changelistDoc is the POST /ctl/changelist body.
type changelistDoc struct {
	Zones []zoneChangeDoc `json:"zones"`
}

type zoneChangeDoc struct {
	Origin string `json:"origin"`
	Delete bool   `json:"delete,omitempty"`
	// Zone is the desired state as master-file text (ignored for deletes).
	Zone string `json:"zone,omitempty"`
}

// planDoc is the JSON rendering of a Plan.
type planDoc struct {
	ID         uint64         `json:"id"`
	Status     PlanStatus     `json:"status"`
	Created    time.Time      `json:"created"`
	AppliedAt  *time.Time     `json:"applied_at,omitempty"`
	Zones      []zonePlanDoc  `json:"zones"`
	Rejections []rejectionDoc `json:"rejections,omitempty"`
	NoOps      int            `json:"noops"`
	RRsets     int            `json:"rrset_changes"`
	Conflicts  int            `json:"conflicts,omitempty"`
	// Revalidated counts zones re-pinned by the pipelined commit stage.
	Revalidated int `json:"revalidated,omitempty"`
}

type zonePlanDoc struct {
	Origin     string           `json:"origin"`
	Op         ChangeOp         `json:"op"`
	FromSerial uint32           `json:"from_serial,omitempty"`
	ToSerial   uint32           `json:"to_serial,omitempty"`
	Changes    []rrsetChangeDoc `json:"changes"`
	// Truncated is set when Changes was capped at maxRenderedChanges.
	Truncated   int  `json:"truncated_changes,omitempty"`
	Conflict    bool `json:"conflict,omitempty"`
	Revalidated bool `json:"revalidated,omitempty"`
}

type rrsetChangeDoc struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"`
	Op      ChangeOp `json:"op"`
	Added   int      `json:"added,omitempty"`
	Deleted int      `json:"deleted,omitempty"`
}

type rejectionDoc struct {
	Origin string `json:"origin,omitempty"`
	Reason string `json:"reason"`
	Detail string `json:"detail"`
}

// renderPlan snapshots a plan into its JSON document under the controller
// lock (plan status and conflict flags mutate at apply time).
func (c *Controller) renderPlan(p *Plan) planDoc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return renderPlanLocked(p)
}

func renderPlanLocked(p *Plan) planDoc {
	doc := planDoc{
		ID:      p.ID,
		Status:  p.Status,
		Created: p.Created,
		NoOps:   p.NoOps,
		RRsets:  p.RRsets,
		Zones:   []zonePlanDoc{},
	}
	if !p.AppliedAt.IsZero() {
		t := p.AppliedAt
		doc.AppliedAt = &t
		doc.Conflicts = p.Conflicts
		doc.Revalidated = p.Revalidated
	}
	for _, zp := range p.Zones {
		zd := zonePlanDoc{
			Origin:      zp.Origin.String(),
			Op:          zp.Op,
			FromSerial:  zp.FromSerial,
			ToSerial:    zp.ToSerial,
			Conflict:    zp.Conflict,
			Revalidated: zp.Revalidated,
			Changes:     []rrsetChangeDoc{},
		}
		for i, ch := range zp.Changes {
			if i == maxRenderedChanges {
				zd.Truncated = len(zp.Changes) - maxRenderedChanges
				break
			}
			zd.Changes = append(zd.Changes, rrsetChangeDoc{
				Name:    ch.Name.String(),
				Type:    ch.Type.String(),
				Op:      ch.Op,
				Added:   ch.Added,
				Deleted: ch.Deleted,
			})
		}
		doc.Zones = append(doc.Zones, zd)
	}
	for _, r := range p.Rejections {
		rd := rejectionDoc{Reason: r.Reason, Detail: r.Detail}
		if !r.Origin.IsZero() {
			rd.Origin = r.Origin.String()
		}
		doc.Rejections = append(doc.Rejections, rd)
	}
	return doc
}

// parseChangelist decodes and parses a changelist document into the
// programmatic form. Parse failures (bad origin, bad master-file text) are
// returned per zone as a rejected plan would render them.
func parseChangelist(doc changelistDoc) (Changelist, []Rejection) {
	var (
		cl  Changelist
		rej []Rejection
	)
	for i, zd := range doc.Zones {
		origin, err := dnswire.ParseName(zd.Origin)
		if err != nil {
			rej = append(rej, Rejection{Reason: "bad-origin",
				Detail: fmt.Sprintf("entry %d: %v", i, err)})
			continue
		}
		zc := ZoneChange{Origin: origin, Delete: zd.Delete}
		if !zd.Delete {
			z, err := zone.ParseMaster(strings.NewReader(zd.Zone), origin)
			if err != nil {
				rej = append(rej, Rejection{Origin: origin, Reason: "parse-error",
					Detail: err.Error()})
				continue
			}
			zc.Desired = z
		}
		cl.Zones = append(cl.Zones, zc)
	}
	return cl, rej
}

// RegisterHTTP mounts the control-plane endpoints on mux:
//
//	POST /ctl/changelist[?mode=plan|apply]  submit a changelist (default apply)
//	POST /ctl/apply?id=N                    apply a previously planned plan
//	GET  /ctl/plan[?id=N]                   fetch a plan (default latest)
//	GET  /ctl/status                        controller counters and latency
func (c *Controller) RegisterHTTP(mux *http.ServeMux) {
	mux.HandleFunc("/ctl/changelist", c.handleChangelist)
	mux.HandleFunc("/ctl/apply", c.handleApply)
	mux.HandleFunc("/ctl/plan", c.handlePlan)
	mux.HandleFunc("/ctl/status", c.handleStatus)
}

func writeCtlJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func ctlError(w http.ResponseWriter, code int, format string, args ...any) {
	writeCtlJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (c *Controller) handleChangelist(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		ctlError(w, http.StatusMethodNotAllowed, "POST a changelist document")
		return
	}
	var doc changelistDoc
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxChangelistBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		ctlError(w, http.StatusBadRequest, "decode changelist: %v", err)
		return
	}
	cl, parseRej := parseChangelist(doc)
	if len(parseRej) > 0 {
		// Parse failures gate the whole changelist, same as validation.
		p := &Plan{Created: time.Now(), Status: StatusRejected, Rejections: parseRej}
		for _, pr := range parseRej {
			c.rejectCounter(pr.Reason).Inc()
		}
		c.plansRejected.Inc()
		c.register(p)
		writeCtlJSON(w, http.StatusUnprocessableEntity, c.renderPlan(p))
		return
	}

	mode := r.URL.Query().Get("mode")
	var p *Plan
	switch mode {
	case "", "apply":
		p, _ = c.SubmitApply(cl)
	case "plan":
		p = c.Plan(cl)
	case "pipeline":
		pl := c.pipeline.Load()
		if pl == nil {
			ctlError(w, http.StatusConflict, "no pipeline attached to this controller")
			return
		}
		var err error
		if p, err = pl.SubmitWait(cl); err != nil {
			ctlError(w, http.StatusConflict, "%v", err)
			return
		}
	default:
		ctlError(w, http.StatusBadRequest, "mode must be plan, apply, or pipeline, got %q", mode)
		return
	}
	code := http.StatusOK
	if p.Status == StatusRejected {
		code = http.StatusUnprocessableEntity
	}
	writeCtlJSON(w, code, c.renderPlan(p))
}

func (c *Controller) handleApply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		ctlError(w, http.StatusMethodNotAllowed, "POST with ?id=N")
		return
	}
	id, err := strconv.ParseUint(r.URL.Query().Get("id"), 10, 64)
	if err != nil {
		ctlError(w, http.StatusBadRequest, "apply needs a numeric ?id")
		return
	}
	p := c.Get(id)
	if p == nil {
		ctlError(w, http.StatusNotFound, "plan %d unknown or evicted", id)
		return
	}
	if err := c.Apply(p); err != nil {
		ctlError(w, http.StatusConflict, "%v", err)
		return
	}
	writeCtlJSON(w, http.StatusOK, c.renderPlan(p))
}

func (c *Controller) handlePlan(w http.ResponseWriter, r *http.Request) {
	var p *Plan
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			ctlError(w, http.StatusBadRequest, "?id must be numeric")
			return
		}
		p = c.Get(id)
	} else {
		p = c.Latest()
	}
	if p == nil {
		ctlError(w, http.StatusNotFound, "no such plan")
		return
	}
	writeCtlJSON(w, http.StatusOK, c.renderPlan(p))
}

func (c *Controller) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := c.StatusNow()
	doc := map[string]any{
		"plans": map[string]uint64{
			"planned":  st.PlansPlanned,
			"applied":  st.PlansApplied,
			"partial":  st.PlansPartial,
			"rejected": st.PlansRejected,
		},
		"conflicts":             st.Conflicts,
		"noops":                 st.NoOps,
		"zones_serving":         st.ZonesServing,
		"store_gen":             st.StoreGen,
		"router_shard_rebuilds": st.ShardRebuilds,
		"plans_retained":        st.PlansRetained,
		"apply_p50":             st.ApplyP50.String(),
		"apply_p99":             st.ApplyP99.String(),
	}
	if pl := c.pipeline.Load(); pl != nil {
		doc["pipeline"] = map[string]any{
			"depth":         pl.Depth(),
			"revalidations": pl.Revalidations(),
			"validate_p50":  pl.StageQuantile("validate", 0.5).String(),
			"validate_p99":  pl.StageQuantile("validate", 0.99).String(),
			"commit_p50":    pl.StageQuantile("commit", 0.5).String(),
			"commit_p99":    pl.StageQuantile("commit", 0.99).String(),
		}
	}
	writeCtlJSON(w, http.StatusOK, doc)
}
