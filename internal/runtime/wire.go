package runtime

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The frame types of the networked backend's bus protocol. Every frame is
// a 4-byte big-endian length prefix followed by one binary frame record
// (appendFrame); the connection between the coordinator and each worker is
// a strict request/response alternation after the handshake, so framing
// never needs message ids.
const (
	// FrameHello is the worker's first frame after dialing in: it claims
	// its shard index.
	FrameHello = "hello"
	// FrameInit ships a worker its shard — owned nodes, their labels and
	// resident agents, and the protocol spec; the worker acks with
	// FrameOK.
	FrameInit = "init"
	// FrameOK acknowledges an init (Err carries a setup failure).
	FrameOK = "ok"
	// FrameExec asks the worker to run one protocol activation: agent,
	// node, carried memory, entry label.
	FrameExec = "exec"
	// FrameResult returns an activation's outcome: new memory, the move
	// label (-1 = parked), a halt string, and the node's board revision.
	FrameResult = "result"
	// FrameDone tells the worker to exit cleanly.
	FrameDone = "done"
)

// frame is the single wire message of the bus protocol; T selects which
// fields are meaningful. On the wire it is the binary record of
// appendFrame; the JSON tags define the coordinator's frame log, one
// json.Marshal line per frame, whose fixed struct layout keeps it
// byte-exact across runs for the frame-log replay test.
type frame struct {
	T string `json:"t"`
	// Handshake and init fields.
	Shard  int        `json:"shard"`
	Spec   string     `json:"spec,omitempty"`
	Agents int        `json:"agents,omitempty"`
	Nodes  []nodeInit `json:"nodes,omitempty"`
	// Activation fields (exec and result).
	Node  int    `json:"node"`
	Agent int    `json:"agent"`
	Mem   string `json:"mem"`
	Entry int    `json:"entry"`
	Move  int    `json:"move"`
	Halt  string `json:"halt,omitempty"`
	Rev   int    `json:"rev"`
	Err   string `json:"err,omitempty"`
}

// nodeInit describes one node of a worker's shard.
type nodeInit struct {
	// V is the node index.
	V int `json:"v"`
	// Labels[p] is the edge label behind port p of V.
	Labels []int `json:"labels"`
	// Homes lists the indexes of the agents homed at V (the worker
	// pre-marks one "home" mark per entry before serving activations).
	Homes []int `json:"homes,omitempty"`
}

// maxFramePayload bounds frames in both directions (a defensive cap, far
// above any real init frame).
const maxFramePayload = 16 << 20

// appendFrame appends f's binary record to b: the fields in declaration
// order, each string as a uvarint byte length and the bytes, each int as a
// zigzag varint, each list as a uvarint count and its elements. Strings
// travel as raw bytes, so memory and halt strings are opaque on the wire.
func appendFrame(b []byte, f *frame) []byte {
	b = appendString(b, f.T)
	b = binary.AppendVarint(b, int64(f.Shard))
	b = appendString(b, f.Spec)
	b = binary.AppendVarint(b, int64(f.Agents))
	b = binary.AppendUvarint(b, uint64(len(f.Nodes)))
	for _, ni := range f.Nodes {
		b = binary.AppendVarint(b, int64(ni.V))
		b = appendInts(b, ni.Labels)
		b = appendInts(b, ni.Homes)
	}
	b = binary.AppendVarint(b, int64(f.Node))
	b = binary.AppendVarint(b, int64(f.Agent))
	b = appendString(b, f.Mem)
	b = binary.AppendVarint(b, int64(f.Entry))
	b = binary.AppendVarint(b, int64(f.Move))
	b = appendString(b, f.Halt)
	b = binary.AppendVarint(b, int64(f.Rev))
	return appendString(b, f.Err)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendInts(b []byte, xs []int) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

// errBadFrame reports a payload that is not one whole frame record.
var errBadFrame = errors.New("runtime: bad frame")

// decodeFrame parses one appendFrame record into f. Every length is
// checked against the bytes left before anything is allocated, so a
// truncated or hostile payload is an error, never a panic; bytes left over
// after the last field are an error too. Empty lists decode as nil.
func decodeFrame(p []byte, f *frame) error {
	d := decoder{b: p}
	*f = frame{}
	f.T = d.str()
	f.Shard = d.num()
	f.Spec = d.str()
	f.Agents = d.num()
	// A node record takes at least three bytes.
	if n := d.count(3); n > 0 {
		f.Nodes = make([]nodeInit, n)
		for i := range f.Nodes {
			ni := &f.Nodes[i]
			ni.V = d.num()
			ni.Labels = d.nums()
			ni.Homes = d.nums()
		}
	}
	f.Node = d.num()
	f.Agent = d.num()
	f.Mem = d.str()
	f.Entry = d.num()
	f.Move = d.num()
	f.Halt = d.str()
	f.Rev = d.num()
	f.Err = d.str()
	if d.err == nil && len(d.b) > 0 {
		d.err = fmt.Errorf("%w: %d trailing bytes", errBadFrame, len(d.b))
	}
	return d.err
}

// decoder reads a frame record field by field. The first malformed field
// sets err, and every later read then returns a zero value.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated or malformed field", errBadFrame)
	}
	d.b = nil
}

func (d *decoder) num() int {
	v, n := binary.Varint(d.b)
	if n <= 0 || int64(int(v)) != v {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

// count reads a uvarint length whose elements take at least size bytes
// each, failing when the bytes left cannot hold that many.
func (d *decoder) count(size int) int {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > uint64(len(d.b)-n)/uint64(size) {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) str() string {
	n := d.count(1)
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) nums() []int {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = d.num()
	}
	return xs
}

// frameConn is one end of a bus connection. A frame leaves in a single
// Write of the 4-byte length and the record, built in a reused buffer,
// and arrives through a bufio.Reader into the same buffer — the
// alternation never has a frame in each direction at once.
type frameConn struct {
	w   io.Writer
	r   *bufio.Reader
	buf []byte
}

func newFrameConn(rw io.ReadWriter) *frameConn {
	return &frameConn{w: rw, r: bufio.NewReader(rw)}
}

// write sends one frame.
func (c *frameConn) write(f *frame) error {
	c.buf = appendFrame(append(c.buf[:0], 0, 0, 0, 0), f)
	n := len(c.buf) - 4
	if n > maxFramePayload {
		return fmt.Errorf("runtime: frame of %d bytes exceeds the cap", n)
	}
	binary.BigEndian.PutUint32(c.buf, uint32(n))
	_, err := c.w.Write(c.buf)
	return err
}

// read receives one frame into f. A stream that ends cleanly between
// frames returns io.EOF.
func (c *frameConn) read(f *frame) error {
	c.buf = append(c.buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(c.r, c.buf); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(c.buf)
	if n > maxFramePayload {
		return fmt.Errorf("runtime: frame of %d bytes exceeds the cap", n)
	}
	if cap(c.buf) < int(n) {
		c.buf = make([]byte, n)
	}
	c.buf = c.buf[:n]
	if _, err := io.ReadFull(c.r, c.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return decodeFrame(c.buf, f)
}
