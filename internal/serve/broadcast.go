package serve

import (
	"bytes"
	"sync"
)

// broadcaster fans a running job's journal byte stream out to SSE
// subscribers as complete NDJSON lines. While the job runs it keeps the
// line history in memory so a late subscriber replays the run from the
// start; finish releases it, because a finished job's stream replays
// from the on-disk journal instead.
//
// Writes arrive at the journal's bufio flush boundaries, which do not
// align with lines; the broadcaster reassembles and only ever delivers
// whole lines.
type broadcaster struct {
	mu      sync.Mutex
	lines   [][]byte // history until finish, each line without its newline
	pending []byte   // trailing partial line
	subs    map[int]*subscriber
	nextSub int
	closed  bool
}

type subscriber struct {
	ch chan []byte
	// dropped marks a subscriber whose channel overflowed; its channel is
	// closed early and the handler tells the client to reconnect (the
	// replayed history brings it back up to date).
	dropped bool
}

// subChanDepth bounds an SSE subscriber's unread backlog in lines.
const subChanDepth = 1024

func newBroadcaster() *broadcaster {
	return &broadcaster{subs: map[int]*subscriber{}}
}

// Write accepts a journal chunk, splitting it into lines and delivering
// each complete one to every subscriber. Never fails — the broadcaster
// sits inside the journal's MultiWriter and must not poison the on-disk
// journal.
func (b *broadcaster) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pending = append(b.pending, p...)
	for {
		i := bytes.IndexByte(b.pending, '\n')
		if i < 0 {
			break
		}
		line := append([]byte(nil), b.pending[:i]...)
		b.pending = b.pending[i+1:]
		b.lines = append(b.lines, line)
		for _, sub := range b.subs {
			if sub.dropped {
				continue
			}
			select {
			case sub.ch <- line:
			default:
				sub.dropped = true
				close(sub.ch)
			}
		}
	}
	return len(p), nil
}

// subscribe returns the history so far plus a live channel. The channel
// closes when the job finishes (after all lines were delivered) or when
// the subscriber falls more than subChanDepth lines behind — dropped()
// distinguishes the two. Call unsubscribe when done. Once the job has
// finished, subscribe reports closed and registers nothing: the history
// is gone, and the caller replays the on-disk journal instead.
func (b *broadcaster) subscribe() (history [][]byte, ch <-chan []byte, id int, closed bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, nil, 0, true
	}
	sub := &subscriber{ch: make(chan []byte, subChanDepth)}
	id = b.nextSub
	b.nextSub++
	b.subs[id] = sub
	// The lines slice only ever appends and lines are immutable, so a
	// shallow copy is a stable snapshot.
	return append([][]byte(nil), b.lines...), sub.ch, id, false
}

func (b *broadcaster) unsubscribe(id int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.subs, id)
}

// dropped reports whether the subscriber was disconnected for falling
// behind rather than because the job finished.
func (b *broadcaster) dropped(id int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	sub, ok := b.subs[id]
	return ok && sub.dropped
}

// finish closes every subscriber channel after the final lines and drops
// the history; further subscribes report closed. The job's journal file
// is complete by now (runJob closes it first), so it carries the stream
// from here on.
func (b *broadcaster) finish() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.lines, b.pending = nil, nil
	for _, sub := range b.subs {
		if !sub.dropped {
			close(sub.ch)
		}
	}
}
