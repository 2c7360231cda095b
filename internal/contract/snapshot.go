package contract

import (
	"medchain/internal/vm"
)

// shareInto installs the base state's object for key k into c without
// copying. Safe only for keys the transaction declared read-only.
func (s *State) shareInto(c *State, k StateKey) {
	switch k.kind {
	case kindDataset:
		if d, ok := s.datasets[k.id]; ok {
			c.datasets[k.id] = d
		}
	case kindTool:
		if t, ok := s.tools[k.id]; ok {
			c.tools[k.id] = t
		}
	case kindPolicy:
		if p, ok := s.policies[k.id]; ok {
			c.policies[k.id] = p
		}
	case kindTrial:
		if t, ok := s.trials[k.id]; ok {
			c.trials[k.id] = t
		}
	case kindAnchor:
		if a, ok := s.anchors[k.id]; ok {
			c.anchors[k.id] = a
		}
	case kindVM:
		if d, ok := s.deployed[k.addr]; ok {
			c.deployed[k.addr] = d
		}
		if st, ok := s.vmStorage[k.addr]; ok {
			c.vmStorage[k.addr] = st
		}
	case kindEvidence:
		if e, ok := s.evidence[k.id]; ok {
			c.evidence[k.id] = e
		}
	case kindManifest:
		if ms, ok := s.manifestSets[k.id]; ok {
			c.manifestSets[k.id] = ms
		}
	case kindRegistry:
		// Whole-registry read (VM HOST registry.* calls): share every
		// dataset and tool.
		for id, d := range s.datasets {
			c.datasets[id] = d
		}
		for id, t := range s.tools {
			c.tools[id] = t
		}
	case kindCrossCfg:
		c.crossCfg = s.crossCfg
	case kindRouting:
		c.routing = s.routing
	case kindShardDir:
		if info, ok := s.shardDir[k.id]; ok {
			c.shardDir[k.id] = info
		}
	case kindShardRoot:
		if root, ok := s.shardRoots[k.id]; ok {
			c.shardRoots[k.id] = root
		}
	case kindCrossOut:
		if prep, ok := s.crossOut[k.id]; ok {
			c.crossOut[k.id] = prep
		}
	case kindCrossIn:
		if res, ok := s.crossIn[k.id]; ok {
			c.crossIn[k.id] = res
		}
	case kindFLRound:
		if fl, ok := s.flRounds[k.id]; ok {
			c.flRounds[k.id] = fl
		}
	}
}

// copyInto installs a deep copy of the base state's object for key k
// into c, so the speculative execution can mutate it freely.
func (s *State) copyInto(c *State, k StateKey) {
	switch k.kind {
	case kindDataset:
		if d, ok := s.datasets[k.id]; ok {
			cp := *d
			c.datasets[k.id] = &cp
		}
	case kindTool:
		if t, ok := s.tools[k.id]; ok {
			cp := *t
			c.tools[k.id] = &cp
		}
	case kindPolicy:
		if p, ok := s.policies[k.id]; ok {
			c.policies[k.id] = copyPolicy(p)
		}
	case kindTrial:
		if t, ok := s.trials[k.id]; ok {
			c.trials[k.id] = copyTrial(t)
		}
	case kindAnchor:
		if a, ok := s.anchors[k.id]; ok {
			cp := *a
			c.anchors[k.id] = &cp
		}
	case kindEvidence:
		if e, ok := s.evidence[k.id]; ok {
			cp := *e
			cp.Evidence = append([]byte(nil), e.Evidence...)
			c.evidence[k.id] = &cp
		}
	case kindManifest:
		if ms, ok := s.manifestSets[k.id]; ok {
			cp := *ms
			c.manifestSets[k.id] = &cp
		}
	case kindVM:
		if d, ok := s.deployed[k.addr]; ok {
			cp := *d // Code bytes shared: immutable after deploy
			c.deployed[k.addr] = &cp
		}
		if st, ok := s.vmStorage[k.addr]; ok {
			ms := vm.NewMemStorage()
			for _, key := range st.Keys() {
				v, _ := st.Get([]byte(key))
				ms.Set([]byte(key), v)
			}
			c.vmStorage[k.addr] = ms
		}
	case kindCrossCfg:
		if s.crossCfg != nil {
			cfg := *s.crossCfg
			c.crossCfg = &cfg
		}
	case kindRouting:
		c.routing = copyRoutingTable(s.routing)
	case kindShardDir:
		if info, ok := s.shardDir[k.id]; ok {
			c.shardDir[k.id] = copyShardInfo(info)
		}
	case kindShardRoot:
		if root, ok := s.shardRoots[k.id]; ok {
			cp := *root
			c.shardRoots[k.id] = &cp
		}
	case kindCrossOut:
		if prep, ok := s.crossOut[k.id]; ok {
			c.crossOut[k.id] = copyCrossPrepare(prep)
		}
	case kindCrossIn:
		if res, ok := s.crossIn[k.id]; ok {
			cp := *res
			c.crossIn[k.id] = &cp
		}
	case kindFLRound:
		if fl, ok := s.flRounds[k.id]; ok {
			c.flRounds[k.id] = copyFLRound(fl)
		}
	}
}

func copyPolicy(p *Policy) *Policy {
	cp := &Policy{Owner: p.Owner, Grants: make([]Grant, len(p.Grants))}
	for i, g := range p.Grants {
		g.Actions = append([]Action(nil), g.Actions...)
		cp.Grants[i] = g
	}
	return cp
}

func copyTrial(t *Trial) *Trial {
	cp := *t
	cp.PrimaryOutcomes = append([]string(nil), t.PrimaryOutcomes...)
	cp.Enrollments = append([]Enrollment(nil), t.Enrollments...)
	cp.Reports = make([]OutcomeReport, len(t.Reports))
	for i, rep := range t.Reports {
		rep.Outcomes = append([]string(nil), rep.Outcomes...)
		cp.Reports[i] = rep
	}
	cp.AdverseEvents = append([]AdverseEventRecord(nil), t.AdverseEvents...)
	return &cp
}

// MergeSpeculative adopts the objects named by the access set's write
// keys from a finished speculative snapshot into s — the materialize
// step of the MVCC engine, called in canonical transaction order so the
// newest writer of each key lands last. The snapshot is consumed: its
// written objects were private deep copies, so adopting the pointers is
// safe and allocation-free.
func (s *State) MergeSpeculative(from *State, acc AccessSet) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range acc.Writes {
		switch k.kind {
		case kindDataset:
			if d, ok := from.datasets[k.id]; ok {
				s.datasets[k.id] = d
			}
		case kindTool:
			if t, ok := from.tools[k.id]; ok {
				s.tools[k.id] = t
			}
		case kindPolicy:
			if p, ok := from.policies[k.id]; ok {
				s.policies[k.id] = p
			}
		case kindTrial:
			if t, ok := from.trials[k.id]; ok {
				s.trials[k.id] = t
			}
		case kindAnchor:
			if a, ok := from.anchors[k.id]; ok {
				s.anchors[k.id] = a
			}
		case kindEvidence:
			if e, ok := from.evidence[k.id]; ok {
				s.evidence[k.id] = e
			}
		case kindManifest:
			if ms, ok := from.manifestSets[k.id]; ok {
				s.manifestSets[k.id] = ms
			}
		case kindVM:
			if d, ok := from.deployed[k.addr]; ok {
				s.deployed[k.addr] = d
			}
			if st, ok := from.vmStorage[k.addr]; ok {
				s.vmStorage[k.addr] = st
			}
		case kindSeq:
			s.requestSeq = from.requestSeq
		case kindCrossCfg:
			if from.crossCfg != nil {
				s.crossCfg = from.crossCfg
			}
		case kindRouting:
			if from.routing != nil {
				s.routing = from.routing
			}
		case kindShardDir:
			if info, ok := from.shardDir[k.id]; ok {
				s.shardDir[k.id] = info
			}
		case kindShardRoot:
			if root, ok := from.shardRoots[k.id]; ok {
				s.shardRoots[k.id] = root
			}
		case kindCrossOut:
			if prep, ok := from.crossOut[k.id]; ok {
				s.crossOut[k.id] = prep
			}
		case kindCrossIn:
			if res, ok := from.crossIn[k.id]; ok {
				s.crossIn[k.id] = res
			}
		case kindFLRound:
			if fl, ok := from.flRounds[k.id]; ok {
				s.flRounds[k.id] = fl
			}
		}
	}
}
