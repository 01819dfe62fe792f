// Package wire is the sudoku-cached frame protocol: a length-prefixed
// JSON-or-binary framing carried in HTTP bodies (HTTP/1.1 or h2c). One
// request body holds one frame; the event tap streams a sequence of
// frames.
//
// Frame layout, all integers big-endian:
//
//	[4B length][1B version][1B codec][1B op][1B flags][8B trace id]?[payload]
//
// where length counts everything after the length prefix (the 4 header
// bytes, the optional trace id, plus the payload). The 8-byte trace id
// is present exactly when FlagTrace is set in the flags byte; requests
// carry the client-generated id and responses echo it, which is how
// trace context crosses the wire without a new protocol version. The codec byte selects the payload encoding
// (JSON for debuggability, binary for the hot path); the op byte names
// the operation so the payload can omit it. The decoder is the trust
// boundary of the server: every length field is checked against the
// frame cap and the remaining bytes before a single allocation trusts
// it.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

const (
	// Version is the only protocol version this build speaks.
	Version = 1
	// MaxFrame caps a frame's length field before any of it is
	// believed: 4 MiB fits a 16k-line batch with frame overhead.
	MaxFrame = 4 << 20
	// headerLen is the fixed post-length header (version, codec, op,
	// flags).
	headerLen = 4
	// traceIDLen is the optional trace-id extension after the fixed
	// header, present when FlagTrace is set.
	traceIDLen = 8
	// deadlineLen is the optional deadline extension after the trace
	// id (or the fixed header when FlagTrace is unset), present when
	// FlagDeadline is set.
	deadlineLen = 4
)

// Frame flags.
const (
	// FlagTrace marks a frame carrying an 8-byte trace id after the
	// flags byte. Clients set it on requests; the server echoes it
	// (with the same id) on every response to a frame that carried it.
	FlagTrace uint8 = 1 << 0
	// FlagDeadline marks a request frame carrying a 4-byte big-endian
	// deadline budget in milliseconds after the trace id (extensions
	// appear in flag-bit order). The budget is relative — "this much
	// service time remains before my caller gives up" — so it survives
	// clock skew between client and server. The server converts it to
	// a context deadline and sheds work it cannot finish in time;
	// responses do not carry it.
	FlagDeadline uint8 = 1 << 1

	// flagsKnown masks the flag bits this build understands. ReadFrame
	// rejects a frame carrying any other bit (ErrBadFlags): every flag
	// defined so far introduces a length-bearing extension, so a peer
	// that silently ignored an unknown bit would misplace the payload
	// boundary and fail later with a baffling payload-decode error.
	// Rejecting at the frame layer makes rolling-upgrade skew explicit
	// instead — a new flag therefore requires deploying receivers that
	// understand it (or at least this rejection) before senders that
	// set it.
	flagsKnown = FlagTrace | FlagDeadline
)

// Codecs.
const (
	CodecJSON   uint8 = 0
	CodecBinary uint8 = 1
)

// Ops.
const (
	OpRead       uint8 = 1
	OpWrite      uint8 = 2
	OpReadBatch  uint8 = 3
	OpWriteBatch uint8 = 4
	OpHealth     uint8 = 5
	// OpEvent frames flow server→client on the RAS tap stream.
	OpEvent uint8 = 6
)

// Response statuses.
const (
	StatusOK uint8 = 0
	// StatusPartial: the batch ran but one or more items failed;
	// Errs holds the per-item outcomes.
	StatusPartial uint8 = 1
	// StatusShed: admission control rejected the request; honor
	// RetryAfterMillis before retrying.
	StatusShed uint8 = 2
	// StatusError: structural failure (bad tenant, bad address, bad
	// frame); Detail explains.
	StatusError uint8 = 3
)

var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds size cap")
	ErrShortFrame    = errors.New("wire: truncated frame")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
	ErrBadCodec      = errors.New("wire: unknown codec")
	ErrBadFlags      = errors.New("wire: unknown flag bits")
	ErrBadPayload    = errors.New("wire: malformed payload")
)

// Header is the fixed per-frame header after the length prefix.
// TraceID is meaningful only when Flags&FlagTrace != 0, and
// DeadlineMillis only when Flags&FlagDeadline != 0; WriteFrame
// serializes each exactly then, and ReadFrame populates each exactly
// then.
type Header struct {
	Version uint8
	Codec   uint8
	Op      uint8
	Flags   uint8
	TraceID uint64
	// DeadlineMillis is the remaining end-to-end budget the client is
	// willing to wait, in milliseconds (relative, not a wall-clock
	// instant).
	DeadlineMillis uint32
}

// Request is the client→server payload. Addrs are tenant-relative byte
// addresses (line-aligned); Data carries len(Addrs)×64 bytes for
// writes and is empty for reads.
type Request struct {
	Tenant string   `json:"tenant"`
	Addrs  []uint64 `json:"addrs,omitempty"`
	Data   []byte   `json:"data,omitempty"`
}

// Response is the server→client payload. Errs parallels the request's
// Addrs when Status is StatusPartial ("" = item succeeded); Data
// carries read results.
type Response struct {
	Status           uint8    `json:"status"`
	RetryAfterMillis uint32   `json:"retry_after_ms,omitempty"`
	Errs             []string `json:"errs,omitempty"`
	Data             []byte   `json:"data,omitempty"`
	Detail           string   `json:"detail,omitempty"`
}

// Event is the tap-stream mirror of a RAS event, JSON-encoded one per
// frame. Addr is tenant-relative (the server rebases it into the
// tenant's window before streaming).
type Event struct {
	Seq      uint64 `json:"seq"`
	TimeUnix int64  `json:"time_unix_ns"`
	Kind     string `json:"kind"`
	Shard    int    `json:"shard"`
	Line     int    `json:"line"`
	Addr     uint64 `json:"addr"`
	Detail   string `json:"detail,omitempty"`
	Repairs  int    `json:"repairs,omitempty"`
	Futile   bool   `json:"futile,omitempty"`
}

// WriteFrame writes one frame: length prefix, header, optional
// extensions in flag-bit order (trace id, then deadline), payload.
func WriteFrame(w io.Writer, h Header, payload []byte) error {
	ext := 0
	if h.Flags&FlagTrace != 0 {
		ext += traceIDLen
	}
	if h.Flags&FlagDeadline != 0 {
		ext += deadlineLen
	}
	if len(payload) > MaxFrame-headerLen-ext {
		return ErrFrameTooLarge
	}
	buf := make([]byte, 4+headerLen, 4+headerLen+ext+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(headerLen+ext+len(payload)))
	buf[4] = h.Version
	buf[5] = h.Codec
	buf[6] = h.Op
	buf[7] = h.Flags
	if h.Flags&FlagTrace != 0 {
		buf = binary.BigEndian.AppendUint64(buf, h.TraceID)
	}
	if h.Flags&FlagDeadline != 0 {
		buf = binary.BigEndian.AppendUint32(buf, h.DeadlineMillis)
	}
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one frame from r, validating the length against
// MaxFrame before allocating, and the version/codec/flags before
// returning.
// io.EOF is returned verbatim when the stream ends cleanly at a frame
// boundary (zero bytes read); a partial frame is ErrShortFrame.
func ReadFrame(r io.Reader) (Header, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return Header{}, nil, io.EOF
		}
		return Header{}, nil, fmt.Errorf("%w: %v", ErrShortFrame, err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > MaxFrame {
		return Header{}, nil, ErrFrameTooLarge
	}
	if n < headerLen {
		return Header{}, nil, ErrShortFrame
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return Header{}, nil, fmt.Errorf("%w: %v", ErrShortFrame, err)
	}
	h := Header{Version: body[0], Codec: body[1], Op: body[2], Flags: body[3]}
	if h.Version != Version {
		return h, nil, ErrBadVersion
	}
	if h.Codec != CodecJSON && h.Codec != CodecBinary {
		return h, nil, ErrBadCodec
	}
	if h.Flags&^flagsKnown != 0 {
		return h, nil, ErrBadFlags
	}
	rest := body[headerLen:]
	if h.Flags&FlagTrace != 0 {
		if len(rest) < traceIDLen {
			return h, nil, ErrShortFrame
		}
		h.TraceID = binary.BigEndian.Uint64(rest)
		rest = rest[traceIDLen:]
	}
	if h.Flags&FlagDeadline != 0 {
		if len(rest) < deadlineLen {
			return h, nil, ErrShortFrame
		}
		h.DeadlineMillis = binary.BigEndian.Uint32(rest)
		rest = rest[deadlineLen:]
	}
	return h, rest, nil
}

// Binary request layout (after the frame header):
//
//	[1B tenantLen][tenant][4B nAddrs][nAddrs×8B addrs][4B dataLen][data]

// EncodeRequest encodes req with the given codec.
func EncodeRequest(codec uint8, req *Request) ([]byte, error) {
	switch codec {
	case CodecJSON:
		return json.Marshal(req)
	case CodecBinary:
		if len(req.Tenant) > 255 {
			return nil, fmt.Errorf("%w: tenant name over 255 bytes", ErrBadPayload)
		}
		buf := make([]byte, 0, 1+len(req.Tenant)+4+8*len(req.Addrs)+4+len(req.Data))
		buf = append(buf, byte(len(req.Tenant)))
		buf = append(buf, req.Tenant...)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(req.Addrs)))
		for _, a := range req.Addrs {
			buf = binary.BigEndian.AppendUint64(buf, a)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(req.Data)))
		buf = append(buf, req.Data...)
		return buf, nil
	default:
		return nil, ErrBadCodec
	}
}

// DecodeRequest decodes a request payload per h.Codec. Every length
// field is validated against the bytes actually present before it
// sizes an allocation.
func DecodeRequest(h Header, payload []byte) (*Request, error) {
	switch h.Codec {
	case CodecJSON:
		req := new(Request)
		if err := json.Unmarshal(payload, req); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		return req, nil
	case CodecBinary:
		if len(payload) < 1 {
			return nil, fmt.Errorf("%w: missing tenant length", ErrBadPayload)
		}
		tl := int(payload[0])
		rest := payload[1:]
		if len(rest) < tl+4 {
			return nil, fmt.Errorf("%w: truncated tenant", ErrBadPayload)
		}
		req := &Request{Tenant: string(rest[:tl])}
		rest = rest[tl:]
		nAddrs := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(len(rest)) < uint64(nAddrs)*8+4 {
			return nil, fmt.Errorf("%w: addr count %d exceeds frame", ErrBadPayload, nAddrs)
		}
		if nAddrs > 0 {
			req.Addrs = make([]uint64, nAddrs)
			for i := range req.Addrs {
				req.Addrs[i] = binary.BigEndian.Uint64(rest[i*8:])
			}
		}
		rest = rest[nAddrs*8:]
		dl := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(len(rest)) < uint64(dl) {
			return nil, fmt.Errorf("%w: data length %d exceeds frame", ErrBadPayload, dl)
		}
		if dl > 0 {
			req.Data = append([]byte(nil), rest[:dl]...)
		}
		return req, nil
	default:
		return nil, ErrBadCodec
	}
}

// Binary response layout:
//
//	[1B status][4B retryAfterMillis][4B nErrs][nErrs×(2B len + bytes)]
//	[4B dataLen][data][2B detailLen][detail]

// EncodeResponse encodes resp with the given codec.
func EncodeResponse(codec uint8, resp *Response) ([]byte, error) {
	switch codec {
	case CodecJSON:
		return json.Marshal(resp)
	case CodecBinary:
		if len(resp.Detail) > 65535 {
			return nil, fmt.Errorf("%w: detail over 64 KiB", ErrBadPayload)
		}
		buf := make([]byte, 0, 1+4+4+4+len(resp.Data)+2+len(resp.Detail))
		buf = append(buf, resp.Status)
		buf = binary.BigEndian.AppendUint32(buf, resp.RetryAfterMillis)
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(resp.Errs)))
		for _, e := range resp.Errs {
			if len(e) > 65535 {
				return nil, fmt.Errorf("%w: item error over 64 KiB", ErrBadPayload)
			}
			buf = binary.BigEndian.AppendUint16(buf, uint16(len(e)))
			buf = append(buf, e...)
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(resp.Data)))
		buf = append(buf, resp.Data...)
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(resp.Detail)))
		buf = append(buf, resp.Detail...)
		return buf, nil
	default:
		return nil, ErrBadCodec
	}
}

// DecodeResponse decodes a response payload per codec, with the same
// validate-before-allocate discipline as DecodeRequest.
func DecodeResponse(codec uint8, payload []byte) (*Response, error) {
	switch codec {
	case CodecJSON:
		resp := new(Response)
		if err := json.Unmarshal(payload, resp); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadPayload, err)
		}
		return resp, nil
	case CodecBinary:
		if len(payload) < 1+4+4 {
			return nil, fmt.Errorf("%w: short response", ErrBadPayload)
		}
		resp := &Response{Status: payload[0], RetryAfterMillis: binary.BigEndian.Uint32(payload[1:])}
		nErrs := binary.BigEndian.Uint32(payload[5:])
		rest := payload[9:]
		// Each error costs at least its 2-byte length prefix.
		if uint64(nErrs)*2 > uint64(len(rest)) {
			return nil, fmt.Errorf("%w: error count %d exceeds frame", ErrBadPayload, nErrs)
		}
		if nErrs > 0 {
			resp.Errs = make([]string, nErrs)
			for i := range resp.Errs {
				if len(rest) < 2 {
					return nil, fmt.Errorf("%w: truncated item error", ErrBadPayload)
				}
				el := int(binary.BigEndian.Uint16(rest))
				rest = rest[2:]
				if len(rest) < el {
					return nil, fmt.Errorf("%w: truncated item error", ErrBadPayload)
				}
				resp.Errs[i] = string(rest[:el])
				rest = rest[el:]
			}
		}
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: missing data length", ErrBadPayload)
		}
		dl := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(len(rest)) < uint64(dl)+2 {
			return nil, fmt.Errorf("%w: data length %d exceeds frame", ErrBadPayload, dl)
		}
		if dl > 0 {
			resp.Data = append([]byte(nil), rest[:dl]...)
		}
		rest = rest[dl:]
		detl := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) < detl {
			return nil, fmt.Errorf("%w: truncated detail", ErrBadPayload)
		}
		resp.Detail = string(rest[:detl])
		return resp, nil
	default:
		return nil, ErrBadCodec
	}
}
