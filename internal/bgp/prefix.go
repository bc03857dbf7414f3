// Package bgp implements the BGP-4 (RFC 4271) wire format and message model
// used by the emulated routers: message header framing, OPEN / UPDATE /
// KEEPALIVE / NOTIFICATION encoding and decoding, path attributes, and the
// IPv4 prefix representation used for NLRI.
//
// The package deliberately mirrors the subset of BGP that the BIRD
// integration in the DiCE paper exercises: UPDATE handling (NLRI and path
// attribute TLVs are what DiCE marks as symbolic), the standard path
// attributes consulted by the decision process, and the NOTIFICATION error
// taxonomy used to classify malformed input.
package bgp

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ASN is an autonomous system number.
type ASN uint32

// String renders the ASN in the conventional decimal form.
func (a ASN) String() string { return strconv.FormatUint(uint64(a), 10) }

// RouterID is a 32-bit BGP identifier, conventionally written as an IPv4
// dotted quad.
type RouterID uint32

// String renders the router ID as a dotted quad.
func (r RouterID) String() string { return ipString(uint32(r)) }

func ipString(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

// ParseIPv4 parses a dotted-quad IPv4 address into its 32-bit value.
func ParseIPv4(s string) (uint32, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, fmt.Errorf("bgp: invalid IPv4 address %q", s)
	}
	var v uint32
	for _, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return 0, fmt.Errorf("bgp: invalid IPv4 address %q", s)
		}
		v = v<<8 | uint32(n)
	}
	return v, nil
}

// Prefix is an IPv4 network prefix (address plus mask length), the unit of
// NLRI in BGP UPDATE messages.
type Prefix struct {
	Addr uint32
	Len  uint8
}

// MustParsePrefix parses a prefix in "a.b.c.d/len" form and panics on error.
// Intended for tests and static topology definitions.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses a prefix in "a.b.c.d/len" form.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("bgp: prefix %q missing mask length", s)
	}
	addr, err := ParseIPv4(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	l, err := strconv.Atoi(s[slash+1:])
	if err != nil || l < 0 || l > 32 {
		return Prefix{}, fmt.Errorf("bgp: invalid prefix length in %q", s)
	}
	return Prefix{Addr: addr, Len: uint8(l)}.Canonical(), nil
}

// Mask returns the network mask of the prefix as a 32-bit value.
func (p Prefix) Mask() uint32 {
	if p.Len == 0 {
		return 0
	}
	return ^uint32(0) << (32 - p.Len)
}

// Canonical returns the prefix with host bits cleared.
func (p Prefix) Canonical() Prefix {
	return Prefix{Addr: p.Addr & p.Mask(), Len: p.Len}
}

// Contains reports whether the prefix covers the other prefix (equal or more
// specific).
func (p Prefix) Contains(other Prefix) bool {
	if other.Len < p.Len {
		return false
	}
	return other.Addr&p.Mask() == p.Addr&p.Mask()
}

// Valid reports whether the prefix is well-formed (length at most 32 and no
// host bits set).
func (p Prefix) Valid() bool {
	return p.Len <= 32 && p.Addr == p.Addr&p.Mask()
}

// String renders the prefix in "a.b.c.d/len" form. Violation keys, summary
// keys and logs render prefixes by the thousand, so it avoids fmt.
func (p Prefix) String() string {
	b := make([]byte, 0, len("255.255.255.255/255"))
	for shift := 24; shift >= 0; shift -= 8 {
		b = append(strconv.AppendUint(b, uint64(byte(p.Addr>>shift)), 10), '.')
	}
	b[len(b)-1] = '/'
	return string(strconv.AppendUint(b, uint64(p.Len), 10))
}

// Less orders prefixes by address then by length, giving a deterministic
// ordering for RIB iteration and wire encoding.
func (p Prefix) Less(other Prefix) bool {
	if p.Addr != other.Addr {
		return p.Addr < other.Addr
	}
	return p.Len < other.Len
}

// SortPrefixes sorts a slice of prefixes in place into canonical order.
func SortPrefixes(ps []Prefix) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}

// encodedPrefixLen returns the number of NLRI octets used by a prefix of the
// given mask length (RFC 4271 §4.3: minimum octets to hold Len bits).
func encodedPrefixLen(maskLen uint8) int {
	return int(maskLen+7) / 8
}

// AppendPrefix appends the NLRI wire encoding of the prefix (length octet
// followed by the minimal number of address octets).
func AppendPrefix(dst []byte, p Prefix) []byte {
	dst = append(dst, p.Len)
	n := encodedPrefixLen(p.Len)
	for i := 0; i < n; i++ {
		dst = append(dst, byte(p.Addr>>(24-8*i)))
	}
	return dst
}

// decodePrefix decodes one NLRI prefix from data, returning the prefix and
// the number of bytes consumed.
func decodePrefix(data []byte) (Prefix, int, error) {
	if len(data) < 1 {
		return Prefix{}, 0, newMessageError(ErrUpdateMessage, ErrSubInvalidNetworkField, nil, "truncated NLRI")
	}
	maskLen := data[0]
	if maskLen > 32 {
		return Prefix{}, 0, newMessageError(ErrUpdateMessage, ErrSubInvalidNetworkField, nil, fmt.Sprintf("prefix length %d > 32", maskLen))
	}
	n := encodedPrefixLen(maskLen)
	if len(data) < 1+n {
		return Prefix{}, 0, newMessageError(ErrUpdateMessage, ErrSubInvalidNetworkField, nil, "truncated NLRI address")
	}
	var addr uint32
	for i := 0; i < n; i++ {
		addr |= uint32(data[1+i]) << (24 - 8*i)
	}
	p := Prefix{Addr: addr, Len: maskLen}
	if !p.Valid() {
		// RFC 4271 permits host bits; we canonicalize rather than reject so
		// fuzzed inputs still parse, mirroring BIRD's lenient handling.
		p = p.Canonical()
	}
	return p, 1 + n, nil
}

// DecodePrefixes decodes a run of NLRI-encoded prefixes covering exactly the
// given byte slice.
func DecodePrefixes(data []byte) ([]Prefix, error) {
	var out []Prefix
	for len(data) > 0 {
		p, n, err := decodePrefix(data)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		data = data[n:]
	}
	return out, nil
}

// Community is a BGP community value (RFC 1997), a 32-bit tag conventionally
// written as "asn:value".
type Community uint32

// NewCommunity builds a community from its AS and value halves.
func NewCommunity(asn uint16, value uint16) Community {
	return Community(uint32(asn)<<16 | uint32(value))
}

// String renders the community in "asn:value" form.
func (c Community) String() string {
	return fmt.Sprintf("%d:%d", uint32(c)>>16, uint32(c)&0xffff)
}

// Well-known communities (RFC 1997).
const (
	CommunityNoExport          Community = 0xFFFFFF01
	CommunityNoAdvertise       Community = 0xFFFFFF02
	CommunityNoExportSubconfed Community = 0xFFFFFF03
)

func appendU16(dst []byte, v uint16) []byte {
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], v)
	return append(dst, b[:]...)
}

func appendU32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}
