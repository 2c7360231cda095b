package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"medchain/internal/contract"
	"medchain/internal/offchain"
	"medchain/internal/query"
)

// SQLStats carries the execution metrics of a federated SQL query.
type SQLStats struct {
	// SitesTotal / SitesSucceeded / SitesDenied count participation.
	SitesTotal     int `json:"sites_total"`
	SitesSucceeded int `json:"sites_succeeded"`
	SitesDenied    int `json:"sites_denied"`
	// Elapsed is end-to-end wall time (authorization + execution +
	// composition).
	Elapsed time.Duration `json:"elapsed"`
	// GasPerNode is the on-chain authorization gas one node spent.
	GasPerNode int64 `json:"gas_per_node"`
}

// RunSQL executes a virtualized-SQL SELECT (paper §III.A) federated
// across all registered datasets: one on-chain execute authorization
// per dataset, evaluation at every authorized site in parallel under
// its grant, exact composition of the partials. Only partial aggregates or projected
// rows leave a site, never raw records.
func (p *Platform) RunSQL(requester *Account, src string) (*query.SQLResult, *SQLStats, error) {
	start := time.Now()
	q, err := query.ParseSQL(src)
	if err != nil {
		return nil, nil, err
	}
	datasets := p.Datasets()
	if len(datasets) == 0 {
		return nil, nil, ErrNoDatasets
	}

	asks := make([]contract.RequestAccessArgs, len(datasets))
	for i, ds := range datasets {
		asks[i] = contract.RequestAccessArgs{Resource: "data:" + ds.ID, Action: contract.ActionExecute, Purpose: "sql"}
	}
	grants, _, gas, err := authorize(p, accessAuth, requester, asks)
	if err != nil {
		return nil, nil, err
	}
	stats := &SQLStats{SitesTotal: len(datasets), GasPerNode: gas}

	var reqs []offchain.Request
	for _, g := range grants {
		if g == nil {
			stats.SitesDenied++
			continue
		}
		reqs = append(reqs, offchain.Request{Op: offchain.OpSQL, Access: g, SQL: q})
	}
	replies, errs := p.runner.Dispatch(reqs)
	var parts []*query.SQLPartial
	for i, err := range errs {
		switch {
		case errors.Is(err, offchain.ErrNoSite):
			stats.SitesDenied++
		case err != nil:
			return nil, nil, fmt.Errorf("core: sql at %s: %w", reqs[i].SiteID(), err)
		default:
			parts = append(parts, replies[i].Partial)
			stats.SitesSucceeded++
		}
	}
	if stats.SitesSucceeded == 0 {
		return nil, nil, fmt.Errorf("%w (%d sites)", ErrDenied, stats.SitesDenied)
	}
	res, err := query.ComposeSQL(q, parts)
	if err != nil {
		return nil, nil, err
	}
	stats.Elapsed = time.Since(start)
	return res, stats, nil
}

// SQLResultJSON renders a result as a JSON document of
// {columns:[...], rows:[[...]]} — the standard-format payload of the
// oracle bridge.
func SQLResultJSON(res *query.SQLResult) ([]byte, error) {
	return json.Marshal(res)
}
