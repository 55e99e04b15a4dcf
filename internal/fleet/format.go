package fleet

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/codec"
	"repro/internal/isp"
)

// stageSwap is a run's format resolved into what it swaps in every cell:
// the codec that stores the photo, decoded by the reference decoder, and,
// for a raw format, the software ISP that develops the device's raw file in
// place of the device's own ISP. A file format stores the displayed frame
// itself with the codec, no photo taken, and each device decodes it with its
// own decoder. A nil *stageSwap is the native path.
type stageSwap struct {
	isp   *isp.Pipeline // nil: the device's own ISP
	codec codec.Codec
	file  bool
}

// rawConverters are the software ISPs a raw format may name (§6, §9.2).
var rawConverters = map[string]func() *isp.Pipeline{
	"dng":         isp.SoftwareDNG,
	"imagemagick": isp.SoftwareImageMagick,
	"adobe":       isp.SoftwareAdobe,
}

// CanonicalFormat checks a format value and returns its canonical spelling,
// or the value itself with the error; "" and "native" (in any case) are the
// native path, canonically "". The grammar is
//
//	native | png | jpeg:Q | webp:Q | heif:Q | raw:dng | raw:imagemagick | raw:adobe
//	       | file:png | file:jpeg:Q | file:webp:Q | file:heif:Q
//
// with names case-insensitive and Q a quality from 1 to 100 written without
// sign or leading zeros. Nothing is trimmed: a value with spaces is refused.
func CanonicalFormat(s string) (string, error) {
	_, canon, err := parseFormat(s)
	if err != nil {
		return s, err
	}
	return canon, nil
}

// parseFormat resolves a format value into its stage swap (nil for native)
// and its canonical spelling.
func parseFormat(s string) (*stageSwap, string, error) {
	v := strings.ToLower(s)
	name, arg, hasArg := strings.Cut(v, ":")
	switch {
	case v == "" || v == "native":
		return nil, "", nil
	case v == "png":
		return &stageSwap{codec: codec.NewPNG()}, v, nil
	case name == "raw" && rawConverters[arg] != nil:
		return &stageSwap{isp: rawConverters[arg](), codec: codec.NewPNG()}, v, nil
	case name == "raw":
		return nil, "", fmt.Errorf("bad format %q: raw takes one of dng, imagemagick, adobe", s)
	case name == "file":
		sw, canon, err := parseFormat(arg)
		if err != nil || sw == nil || sw.isp != nil || sw.file {
			return nil, "", fmt.Errorf("bad format %q: file takes a codec (png, jpeg:Q, webp:Q or heif:Q)", s)
		}
		return &stageSwap{codec: sw.codec, file: true}, "file:" + canon, nil
	case hasArg && (name == "jpeg" || name == "webp" || name == "heif"):
		q, err := strconv.Atoi(arg)
		if err != nil || q < 1 || q > 100 || strconv.Itoa(q) != arg {
			return nil, "", fmt.Errorf("bad format %q: quality must be an integer 1..100 without sign or leading zeros", s)
		}
		var c codec.Codec
		switch name {
		case "jpeg":
			c = codec.NewJPEG(q)
		case "webp":
			c = codec.NewWebP(q)
		default:
			c = codec.NewHEIF(q)
		}
		return &stageSwap{codec: c}, v, nil
	}
	return nil, "", fmt.Errorf("bad format %q (want native, png, jpeg:Q, webp:Q, heif:Q, raw:dng|imagemagick|adobe or file:<codec>)", s)
}
