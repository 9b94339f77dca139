// Package engine is the forward-chaining rule engine the paper's
// predicate index serves: an Ariel-style trigger system. Rules are
//
//	if condition then action
//
// over a relation's tuples. On every insert, update or delete the engine
// asks its (pluggable) matcher which rule predicates match the affected
// tuple — the paper's predicate testing problem — and fires the actions
// of the owning rules. Rule conditions may contain disjunctions; they
// are split into disjunction-free predicates before registration, as the
// paper prescribes, and a rule fires when any of its split predicates
// matches.
//
// Actions can mutate the database (set, insert, delete), which triggers
// further matching — forward chaining — bounded by a cascade depth limit.
package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"predmatch/internal/matcher"
	"predmatch/internal/obs"
	"predmatch/internal/parser"
	"predmatch/internal/pred"
	"predmatch/internal/storage"
	"predmatch/internal/trace"
	"predmatch/internal/tuple"
	"predmatch/internal/value"
)

// Rule is a registered rule.
type Rule struct {
	Name string
	Rel  string
	// Priority orders firing among rules matching the same event: higher
	// priorities fire first, ties break by name.
	Priority int
	Events   map[storage.Op]bool
	Actions  []parser.Action
	Source   string
	// predIDs are the disjunction-free predicates registered for the
	// rule's condition (one per DNF conjunct; a single always-true
	// predicate when the rule has no condition).
	predIDs []pred.ID
	// fires is the rule's activation counter, resolved once when the
	// rule is defined so the firing loop never touches the vec's lookup
	// lock. nil when the engine is uninstrumented.
	fires *obs.Counter
}

// FiringEvent is the flattened form of one rule activation delivered to
// OnFire hooks: which rule fired, on which operation against which
// tuple, and how deep in a forward-chaining cascade the activation sits
// (0 for a firing triggered directly by an external mutation).
type FiringEvent struct {
	Rule    string
	Rel     string
	Op      storage.Op
	TupleID tuple.ID
	// Tuple is the tuple the rule's predicate matched: the new image for
	// inserts and updates, the old image for deletes. It must be treated
	// as read-only.
	Tuple tuple.Tuple
	Depth int
}

// Logger receives rule "log" action output.
type Logger func(format string, args ...any)

// Engine wires storage events to a predicate matcher and executes rule
// actions.
type Engine struct {
	mu         sync.Mutex
	db         *storage.DB
	funcs      *pred.Registry
	m          matcher.Matcher
	rules      map[string]*Rule  // guarded-by: mu
	byPred     map[pred.ID]*Rule // guarded-by: mu
	nextPredID pred.ID
	log        Logger
	depth      int
	scratch    []pred.ID
	// toFire is a stack of the rules each in-flight event is firing: an
	// event pushes its rules on top, and a cascaded event raised by one of
	// their actions pushes above them and pops before returning.
	toFire     []*Rule
	onFire     []func(FiringEvent)
	firingsVec *obs.CounterVec // per-rule activation counters; nil when uninstrumented
	events     *obs.Counter    // storage events observed
	// span is the current trace parent for event processing, set by the
	// serialized mutation path via SetSpan (same caller serialization
	// that makes the unlocked byPred read in onEvent safe). During a
	// cascade onEvent temporarily re-points it at the firing rule's
	// span so nested events parent under the rule that caused them.
	span *trace.Span
	// tm is e.m's traced extension, resolved once at construction; nil
	// when the matcher doesn't implement matcher.TracedMatcher.
	tm matcher.TracedMatcher
}

// maxCascadeDepth bounds forward-chaining recursion: an event raised
// this many cascade levels below an external mutation fails it.
const maxCascadeDepth = 16

// Option configures an Engine.
type Option func(*Engine)

// WithLogger sets the destination of "log" actions (default: discard —
// with no logger, or a nil one, a log action formats nothing).
func WithLogger(l Logger) Option { return func(e *Engine) { e.log = l } }

// WithMetrics registers the engine's metric families on reg: per-rule
// activation counters, a storage-event counter, and a defined-rule
// gauge sampled at scrape time. A nil reg leaves the engine
// uninstrumented.
func WithMetrics(reg *obs.Registry) Option {
	return func(e *Engine) {
		if reg == nil {
			return
		}
		e.firingsVec = reg.CounterVec("predmatch_rule_firings_total",
			"Rule activations by rule name.", "rule")
		e.events = reg.Counter("predmatch_engine_events_total",
			"Storage mutations observed by the rule engine (including cascades).")
		reg.GaugeFunc("predmatch_rules",
			"Rules currently defined.", func() float64 {
				e.mu.Lock()
				defer e.mu.Unlock()
				return float64(len(e.rules))
			})
	}
}

// New builds an engine over db using m as the predicate-matching
// strategy and registers it as a storage observer.
func New(db *storage.DB, funcs *pred.Registry, m matcher.Matcher, opts ...Option) *Engine {
	e := &Engine{
		db:         db,
		funcs:      funcs,
		m:          m,
		rules:      make(map[string]*Rule),
		byPred:     make(map[pred.ID]*Rule),
		nextPredID: 1,
	}
	for _, o := range opts {
		o(e)
	}
	e.tm, _ = m.(matcher.TracedMatcher)
	db.Observe(e.onEvent)
	return e
}

// SetSpan installs sp as the trace parent for the mutation about to be
// applied (nil to clear). Like onEvent, it relies on the caller
// serializing mutations; the server calls it under its own mutex around
// each applied mutation, so a traced request's firing cascade lands in
// that request's trace and nothing leaks into the next one.
func (e *Engine) SetSpan(sp *trace.Span) { e.span = sp }

// Matcher returns the engine's matching strategy.
func (e *Engine) Matcher() matcher.Matcher { return e.m }

// OnFire registers a hook invoked synchronously for every rule
// activation, before the rule's actions execute and in the same order
// activations fire. Hooks must be registered before mutations start
// flowing and must not mutate the database (they run inside the
// triggering mutation). The rule service daemon uses this to stream
// firings to subscribers; tests use it as a firing oracle.
func (e *Engine) OnFire(fn func(FiringEvent)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onFire = append(e.onFire, fn)
}

// DefineRule parses and registers a rule from source text.
func (e *Engine) DefineRule(src string) (*Rule, error) {
	ast, err := parser.ParseRule(src, e.db.Catalog(), e.funcs)
	if err != nil {
		return nil, err
	}
	return e.DefineRuleAST(ast)
}

// DefineRuleAST registers a parsed rule: its condition is split into
// disjunction-free predicates, each added to the matcher.
func (e *Engine) DefineRuleAST(ast *parser.RuleAST) (*Rule, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.rules[ast.Name]; dup {
		return nil, fmt.Errorf("engine: rule %q already defined", ast.Name)
	}
	r := &Rule{
		Name:     ast.Name,
		Rel:      ast.Rel,
		Priority: ast.Priority,
		Events:   make(map[storage.Op]bool),
		Actions:  ast.Actions,
		Source:   ast.Source,
	}
	for _, ev := range ast.Events {
		r.Events[ev] = true
	}
	if e.firingsVec != nil {
		r.fires = e.firingsVec.With(ast.Name)
	}

	var preds []*pred.Predicate
	if ast.Condition != nil {
		preds = pred.SplitDNF(e.nextPredID, ast.Rel, ast.Condition)
	} else {
		preds = []*pred.Predicate{pred.New(e.nextPredID, ast.Rel)}
	}
	e.nextPredID += pred.ID(len(preds))

	for i, p := range preds {
		if err := e.m.Add(p); err != nil {
			// Roll back predicates already added.
			for _, q := range preds[:i] {
				_ = e.m.Remove(q.ID)
			}
			return nil, fmt.Errorf("engine: registering rule %q: %w", ast.Name, err)
		}
		r.predIDs = append(r.predIDs, p.ID)
		e.byPred[p.ID] = r
	}
	e.rules[ast.Name] = r
	return r, nil
}

// DropRule removes a rule and its predicates.
func (e *Engine) DropRule(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.rules[name]
	if !ok {
		return fmt.Errorf("engine: unknown rule %q", name)
	}
	for _, id := range r.predIDs {
		if err := e.m.Remove(id); err != nil {
			return err
		}
		delete(e.byPred, id)
	}
	delete(e.rules, name)
	return nil
}

// Rules returns the defined rule names, sorted.
func (e *Engine) Rules() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.rules))
	for n := range e.rules {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Sources returns the source text of every defined rule, ordered by
// rule name. Rule semantics are order-insensitive (priority lives in
// the source), so redefining them in this order — as the durability
// layer's snapshots do — rebuilds an equivalent rule network.
func (e *Engine) Sources() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := make([]string, 0, len(e.rules))
	for n := range e.rules {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = e.rules[n].Source
	}
	return out
}

// onEvent is the storage observer: match the affected tuple, collect the
// owning rules, and fire their actions. Mutations are serialized by the
// caller (the server runs them under its own mutex; the embedded engine
// is single-writer), which is what makes the unlocked byPred read safe.
//
//predmatchvet:holds mu
func (e *Engine) onEvent(ev storage.Event) error {
	// Deletes match against the old tuple; inserts and updates against
	// the new one (the paper's focus is new and modified tuples).
	t := ev.New
	if ev.Op == storage.OpDelete {
		t = ev.Old
	}
	if t == nil {
		return nil
	}
	e.events.Inc()

	if e.depth >= maxCascadeDepth {
		return fmt.Errorf("engine: cascade depth limit %d exceeded at %s on %s", maxCascadeDepth, ev.Op, ev.Rel)
	}

	// One span per storage event; the stab's child spans hang off it
	// when the matcher supports tracing. All span calls are nil-receiver
	// no-ops on an untraced mutation.
	parent := e.span
	esp := parent.Child("engine.event")
	if esp != nil {
		esp.SetStr("rel", ev.Rel)
		esp.SetStr("op", ev.Op.String())
		esp.SetInt("depth", int64(e.depth))
	}

	var matched []pred.ID
	var err error
	if esp != nil && e.tm != nil {
		matched, err = e.tm.MatchTraced(ev.Rel, t, e.scratch[:0], esp)
	} else {
		matched, err = e.m.Match(ev.Rel, t, e.scratch[:0])
	}
	e.scratch = matched
	if err != nil {
		esp.End()
		return err
	}
	esp.SetInt("matches", int64(len(matched)))

	// A rule with several DNF predicates fires once; order rule firings
	// by priority, then name, for determinism. The matched rules of one
	// event number in the dozens at most, so the duplicate check is a scan
	// of the ones already collected.
	base := len(e.toFire)
	for _, id := range matched {
		r := e.byPred[id]
		if r == nil || !r.Events[ev.Op] || slices.Contains(e.toFire[base:], r) {
			continue
		}
		e.toFire = append(e.toFire, r)
	}
	end := len(e.toFire)
	slices.SortFunc(e.toFire[base:end], func(a, b *Rule) int {
		return cmp.Or(cmp.Compare(b.Priority, a.Priority), cmp.Compare(a.Name, b.Name))
	})

	e.depth++
	defer func() {
		e.depth--
		e.toFire = e.toFire[:base]
	}()
	for i := base; i < end; i++ {
		// Indexed afresh each time: a cascade may have grown the stack
		// into a new backing array.
		r := e.toFire[i]
		r.fires.Inc()
		for _, fn := range e.onFire {
			fn(FiringEvent{
				Rule:    r.Name,
				Rel:     ev.Rel,
				Op:      ev.Op,
				TupleID: ev.ID,
				Tuple:   t,
				Depth:   e.depth - 1,
			})
		}
		// Cascaded events raised by this rule's actions parent under the
		// rule's span; restore the original parent either way (error
		// paths included — the server clears the span after the
		// mutation, so a stale intermediate can never leak).
		var rsp *trace.Span
		if esp != nil {
			rsp = esp.Child("rule.fire")
			rsp.SetStr("rule", r.Name)
			e.span = rsp
		}
		err := e.execute(r, ev, t)
		if esp != nil {
			rsp.End()
			e.span = parent
		}
		if err != nil {
			esp.End()
			return err
		}
	}
	esp.End()
	return nil
}

// execute runs a rule's actions for a triggering event.
func (e *Engine) execute(r *Rule, ev storage.Event, t tuple.Tuple) error {
	for _, a := range r.Actions {
		switch a.Kind {
		case parser.ActionLog:
			if e.log != nil {
				e.log("[rule %s] %s (%s on %s %v)", r.Name, a.Message, ev.Op, ev.Rel, t)
			}
		case parser.ActionRaise:
			return fmt.Errorf("engine: rule %s raised: %s", r.Name, a.Message)
		case parser.ActionSet:
			if ev.Op == storage.OpDelete {
				continue // nothing to modify
			}
			table, ok := e.db.Table(ev.Rel)
			if !ok {
				return fmt.Errorf("engine: relation %s vanished", ev.Rel)
			}
			pos, ok := table.Relation().AttrIndex(a.Attr)
			if !ok {
				return fmt.Errorf("engine: rule %s sets unknown attribute %s", r.Name, a.Attr)
			}
			cur, ok := table.Get(ev.ID)
			if !ok {
				continue // tuple already gone (cascaded delete)
			}
			v, err := a.Expr.Eval(table.Relation(), cur)
			if err != nil {
				return fmt.Errorf("engine: rule %s set expression: %w", r.Name, err)
			}
			if value.Equal(cur[pos], v) {
				continue // no-op assignment; avoids trivial infinite loops
			}
			next := cur.Clone()
			next[pos] = v
			if err := table.Update(ev.ID, next); err != nil {
				return fmt.Errorf("engine: rule %s set action: %w", r.Name, err)
			}
		case parser.ActionInsert:
			table, ok := e.db.Table(a.Rel)
			if !ok {
				return fmt.Errorf("engine: rule %s inserts into unknown relation %s", r.Name, a.Rel)
			}
			if _, err := table.Insert(tuple.New(a.Values...)); err != nil {
				return fmt.Errorf("engine: rule %s insert action: %w", r.Name, err)
			}
		case parser.ActionDelete:
			if ev.Op == storage.OpDelete {
				continue
			}
			table, ok := e.db.Table(ev.Rel)
			if !ok {
				return fmt.Errorf("engine: relation %s vanished", ev.Rel)
			}
			if _, exists := table.Get(ev.ID); !exists {
				continue
			}
			if err := table.Delete(ev.ID); err != nil {
				return fmt.Errorf("engine: rule %s delete action: %w", r.Name, err)
			}
		}
	}
	return nil
}
