package core

import (
	"context"
	"fmt"
	"time"

	"fargo/internal/flight"
	"fargo/internal/ids"
	"fargo/internal/ref"
	"fargo/internal/wire"
)

// Event subscription (§4.2). Every profiling service has a corresponding
// event: a subscriber names the service, a threshold and a crossing
// direction; internally the registration starts the continuous profile and a
// per-subscription checker filters the shared measurement stream against the
// threshold — many listeners never overload the measurement unit. Built-in
// events (complet arrivals/departures, core shutdown) are fired directly by
// the runtime.
//
// Listeners come in three delivery flavors:
//
//   - local functions (Subscribe / SubscribeBuiltin),
//   - complet methods (SubscribeComplet): delivered by invoking the method
//     through a tracking reference, so the listener keeps receiving events
//     after it migrates — the paper's distributed event model,
//   - remote cores (SubscribeAt): the event is shipped to the subscriber
//     core, which dispatches it locally.

// SubscribeOptions parameterizes a profiled event subscription.
type SubscribeOptions struct {
	// Service is the profiling service to watch.
	Service string
	// Args parameterizes the service (see the Service* constants).
	Args []string
	// Threshold is the trigger level.
	Threshold float64
	// Above selects value >= Threshold when true, value <= Threshold
	// when false.
	Above bool
	// Interval is the measurement period.
	Interval time.Duration
}

func (o SubscribeOptions) validate() error {
	if o.Service == "" {
		return fmt.Errorf("monitor: subscribe: empty service")
	}
	if o.Interval <= 0 {
		return fmt.Errorf("monitor: subscribe: interval must be positive")
	}
	return nil
}

// Subscribe registers a local function listener for a profiled threshold
// event. It returns a token for Unsubscribe.
func (m *Monitor) Subscribe(opts SubscribeOptions, fn Listener) (string, error) {
	if fn == nil {
		return "", fmt.Errorf("monitor: subscribe: nil listener")
	}
	if err := opts.validate(); err != nil {
		return "", err
	}
	sub := &subscription{
		event:     opts.Service,
		args:      append([]string(nil), opts.Args...),
		threshold: opts.Threshold,
		above:     opts.Above,
		interval:  opts.Interval,
		profiled:  true,
		fn:        fn,
	}
	return m.addProfiledSub(sub)
}

// SubscribeComplet registers a complet method as the listener for a profiled
// threshold event. The notification is delivered by invoking
//
//	method(event string, value float64, source string, complet string, detail string)
//
// through the given (tracking) reference, so the listener complet keeps
// receiving events after it migrates.
func (m *Monitor) SubscribeComplet(opts SubscribeOptions, r *ref.Ref, method string) (string, error) {
	if r == nil || method == "" {
		return "", fmt.Errorf("monitor: subscribe: reference and method required")
	}
	if err := opts.validate(); err != nil {
		return "", err
	}
	sub := &subscription{
		event:      opts.Service,
		args:       append([]string(nil), opts.Args...),
		threshold:  opts.Threshold,
		above:      opts.Above,
		interval:   opts.Interval,
		profiled:   true,
		completRef: r,
		method:     method,
	}
	return m.addProfiledSub(sub)
}

// SubscribeBuiltin registers a local function listener for a built-in event
// (EventCompletArrived, EventCompletDeparted, EventCoreShutdown).
func (m *Monitor) SubscribeBuiltin(event string, fn Listener) (string, error) {
	if fn == nil {
		return "", fmt.Errorf("monitor: subscribe: nil listener")
	}
	if !isBuiltinEvent(event) {
		return "", fmt.Errorf("monitor: %q is not a built-in event", event)
	}
	sub := &subscription{event: event, fn: fn}
	return m.addSub(sub)
}

// SubscribeBuiltinComplet registers a complet method listener for a built-in
// event (delivery as in SubscribeComplet).
func (m *Monitor) SubscribeBuiltinComplet(event string, r *ref.Ref, method string) (string, error) {
	if r == nil || method == "" {
		return "", fmt.Errorf("monitor: subscribe: reference and method required")
	}
	if !isBuiltinEvent(event) {
		return "", fmt.Errorf("monitor: %q is not a built-in event", event)
	}
	sub := &subscription{event: event, completRef: r, method: method}
	return m.addSub(sub)
}

func isBuiltinEvent(event string) bool {
	switch event {
	case EventCompletArrived, EventCompletDeparted, EventCoreShutdown, EventCoreUnreachable,
		EventCoreReachable, EventChainRepaired, EventHopBudgetExceeded:
		return true
	default:
		return false
	}
}

// SubscribeAt subscribes this core, as a remote listener, to an event at
// another core; fired events are shipped back and delivered to fn locally.
// For built-in events pass a zero-valued SubscribeOptions except Service.
func (m *Monitor) SubscribeAt(core ids.CoreID, opts SubscribeOptions, fn Listener) (string, error) {
	if fn == nil {
		return "", fmt.Errorf("monitor: subscribe: nil listener")
	}
	if core == m.c.id {
		if isBuiltinEvent(opts.Service) {
			return m.SubscribeBuiltin(opts.Service, fn)
		}
		return m.Subscribe(opts, fn)
	}
	token, err := ids.RandomToken(16)
	if err != nil {
		return "", err
	}
	// Register the local delivery endpoint first. It is marked as a
	// remote endpoint so it only receives token-routed notifications from
	// the remote core — never same-named events fired locally.
	local := &subscription{token: token, event: opts.Service, fn: fn, remoteEndpoint: true}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", ErrClosed
	}
	m.subs[token] = local
	m.mu.Unlock()

	reply, err := call[wire.Subscribe, wire.SubscribeReply](context.Background(), m.c, core, wire.KindSubscribe, wire.Subscribe{
		Event:          opts.Service,
		Threshold:      opts.Threshold,
		Above:          opts.Above,
		IntervalMillis: opts.Interval.Milliseconds(),
		Token:          token,
		Subscriber:     m.c.id,
		ServiceArgs:    opts.Args,
	}, ref.CallOptions{}, nil)
	if err != nil {
		m.removeSub(token)
		return "", fmt.Errorf("monitor: subscribe: %w", err)
	}
	if reply.Err != "" {
		m.removeSub(token)
		return "", fmt.Errorf("monitor: subscribe at %s: %s", core, reply.Err)
	}
	return token, nil
}

// UnsubscribeAt cancels a remote subscription made with SubscribeAt.
func (m *Monitor) UnsubscribeAt(core ids.CoreID, token string) error {
	m.removeSub(token)
	if core == m.c.id {
		return nil
	}
	reply, err := call[wire.Unsubscribe, wire.UnsubscribeReply](context.Background(), m.c, core, wire.KindUnsubscribe,
		wire.Unsubscribe{Token: token}, ref.CallOptions{}, nil)
	if err != nil {
		return fmt.Errorf("monitor: unsubscribe: %w", err)
	}
	if reply.Err != "" {
		return fmt.Errorf("monitor: unsubscribe at %s: %s", core, reply.Err)
	}
	return nil
}

// Unsubscribe cancels a local subscription by token.
func (m *Monitor) Unsubscribe(token string) {
	m.removeSub(token)
}

// addProfiledSub starts the backing continuous profile (interest-counted)
// and the per-subscription threshold checker.
func (m *Monitor) addProfiledSub(sub *subscription) (string, error) {
	if err := m.Start(sub.interval, sub.event, sub.args...); err != nil {
		return "", err
	}
	sub.stop = make(chan struct{})
	sub.done = make(chan struct{})
	token, err := m.addSub(sub)
	if err != nil {
		m.Stop(sub.event, sub.args...)
		return "", err
	}
	m.wg.Add(1)
	go m.thresholdChecker(sub)
	return token, nil
}

func (m *Monitor) addSub(sub *subscription) (string, error) {
	if sub.token == "" {
		token, err := ids.RandomToken(16)
		if err != nil {
			return "", err
		}
		sub.token = token
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return "", ErrClosed
	}
	m.subs[sub.token] = sub
	return sub.token, nil
}

func (m *Monitor) removeSub(token string) {
	m.mu.Lock()
	sub, ok := m.subs[token]
	if ok {
		delete(m.subs, token)
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	if sub.stop != nil {
		close(sub.stop)
		<-sub.done
	}
	if sub.profiled {
		m.Stop(sub.event, sub.args...)
	}
}

// SubscriptionCount reports the number of active subscriptions (test
// support).
func (m *Monitor) SubscriptionCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.subs)
}

// thresholdChecker reads the shared measurement stream at the subscription's
// interval and fires edge-triggered threshold events: one event per crossing,
// re-armed when the condition clears (§4.2: the threshold is kept with the
// listener, filtering results).
func (m *Monitor) thresholdChecker(sub *subscription) {
	defer m.wg.Done()
	defer close(sub.done)
	ticker := time.NewTicker(sub.interval)
	defer ticker.Stop()
	armed := true
	for {
		select {
		case <-ticker.C:
			v, err := m.Get(sub.event, sub.args...)
			if err != nil {
				continue
			}
			crossed := (sub.above && v >= sub.threshold) || (!sub.above && v <= sub.threshold)
			if crossed && armed {
				armed = false
				m.deliver(sub, Event{
					Name:   sub.event,
					Value:  v,
					Source: m.c.id,
					At:     time.Now(),
				})
			} else if !crossed {
				armed = true
			}
		case <-sub.stop:
			return
		}
	}
}

// fireBuiltin fires a built-in event to every matching subscription.
func (m *Monitor) fireBuiltin(event string, complet ids.CompletID, detail string) {
	m.fire(Event{
		Name:    event,
		Source:  m.c.id,
		Complet: complet,
		Detail:  detail,
		At:      time.Now(),
	})
}

// fire delivers an event to all subscriptions matching its name.
func (m *Monitor) fire(ev Event) {
	m.mu.Lock()
	var targets []*subscription
	for _, sub := range m.subs {
		if sub.event == ev.Name && !sub.profiled && !sub.remoteEndpoint {
			targets = append(targets, sub)
		}
	}
	m.mu.Unlock()
	for _, sub := range targets {
		m.deliver(sub, ev)
	}
}

// deliver ships one event to one subscription's listener on a fresh
// goroutine (§5: each monitoring event is asynchronously notified by
// starting a new thread).
func (m *Monitor) deliver(sub *subscription, ev Event) {
	// The Add must happen under the same lock section that reads closed:
	// close() flips closed under mu and only then Waits, so an Add here is
	// guaranteed to precede the Wait — checking closed and Adding in two
	// separate critical sections would race Add against Wait.
	m.mu.Lock()
	closed := m.closed
	if !closed {
		m.wg.Add(1)
	}
	m.mu.Unlock()
	if closed {
		return
	}
	fev := flight.Event{Kind: flight.KindSubscription, Peer: ev.Source.String(), Detail: ev.Name}
	if !ev.Complet.Nil() {
		fev.Complet = ev.Complet.String()
	}
	m.c.flight.Record(fev)
	go func() {
		defer m.wg.Done()
		switch {
		case sub.fn != nil:
			sub.fn(ev)
		case sub.completRef != nil:
			_, err := sub.completRef.Invoke(sub.method,
				ev.Name, ev.Value, ev.Source.String(), ev.Complet.String(), ev.Detail)
			if err != nil {
				m.c.opts.Logf("fargo monitor %s: complet listener %s.%s: %v",
					m.c.id, sub.completRef.Target(), sub.method, err)
			}
		case !sub.subscriber.Nil():
			payload, err := wire.EncodePayload(wire.EventNotify{
				Token:     sub.token,
				Event:     ev.Name,
				Value:     ev.Value,
				Source:    ev.Source,
				Complet:   ev.Complet,
				Detail:    ev.Detail,
				UnixNanos: ev.At.UnixNano(),
			})
			if err != nil {
				return
			}
			if err := m.c.tr.Notify(sub.subscriber, wire.KindEventNotify, payload); err != nil {
				m.c.opts.Logf("fargo monitor %s: notify %s: %v", m.c.id, sub.subscriber, err)
			}
		}
	}()
}

// serveSubscribe serves a remote core's subscription request.
func (m *Monitor) serveSubscribe(_ context.Context, req wire.Subscribe) (wire.SubscribeReply, error) {
	sub := &subscription{
		token:      req.Token,
		event:      req.Event,
		args:       req.ServiceArgs,
		threshold:  req.Threshold,
		above:      req.Above,
		interval:   time.Duration(req.IntervalMillis) * time.Millisecond,
		subscriber: req.Subscriber,
	}
	var err error
	if isBuiltinEvent(req.Event) {
		_, err = m.addSub(sub)
	} else {
		sub.profiled = true
		if sub.interval <= 0 {
			err = fmt.Errorf("profiled event needs a positive interval")
		} else {
			_, err = m.addProfiledSub(sub)
		}
	}
	if err != nil {
		return wire.SubscribeReply{Err: err.Error()}, nil
	}
	return wire.SubscribeReply{}, nil
}

// serveUnsubscribe serves a remote core's unsubscription.
func (m *Monitor) serveUnsubscribe(_ context.Context, req wire.Unsubscribe) (wire.UnsubscribeReply, error) {
	m.removeSub(req.Token)
	return wire.UnsubscribeReply{}, nil
}

// handleEventNotify dispatches an event shipped from a remote core to the
// local subscription endpoint registered under its token.
func (m *Monitor) handleEventNotify(env wire.Envelope) {
	var req wire.EventNotify
	if err := wire.DecodePayload(env.Payload, &req); err != nil {
		m.c.opts.Logf("fargo monitor %s: bad event notify: %v", m.c.id, err)
		return
	}
	m.mu.Lock()
	sub, ok := m.subs[req.Token]
	m.mu.Unlock()
	if !ok {
		return
	}
	m.deliver(sub, Event{
		Name:    req.Event,
		Value:   req.Value,
		Source:  req.Source,
		Complet: req.Complet,
		Detail:  req.Detail,
		At:      time.Unix(0, req.UnixNanos),
	})
}

// handleRemoteShutdown reacts to a peer's shutdown notice by firing the
// coreShutdown event locally with the dying core as source, so local
// policies (e.g. the example script's reliability rule) can react.
func (m *Monitor) handleRemoteShutdown(from ids.CoreID) {
	m.fire(Event{
		Name:   EventCoreShutdown,
		Source: from,
		At:     time.Now(),
	})
}
