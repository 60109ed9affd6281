package core

import (
	"encoding/xml"
	"fmt"
	"net/http"

	"segshare/internal/fspath"
)

// WebDAV compatibility layer (paper §VI: "WebDAV makes the prototype
// compatible with existing clients on Android, iOS, Windows, Mac, and
// Linux"). PROPFIND answers RFC 4918 multistatus XML for depth 0/1;
// OPTIONS advertises the DAV compliance class; HEAD mirrors GET.
// JSON listings remain available via GET on a directory path for the
// native client.

type davMultistatus struct {
	XMLName   xml.Name      `xml:"D:multistatus"`
	XMLNS     string        `xml:"xmlns:D,attr"`
	Responses []davResponse `xml:"D:response"`
}

type davResponse struct {
	Href     string      `xml:"D:href"`
	Propstat davPropstat `xml:"D:propstat"`
}

type davPropstat struct {
	Prop   davProp `xml:"D:prop"`
	Status string  `xml:"D:status"`
}

type davProp struct {
	DisplayName  string           `xml:"D:displayname"`
	ResourceType *davResourceType `xml:"D:resourcetype"`
	ContentLen   *int64           `xml:"D:getcontentlength,omitempty"`
}

type davResourceType struct {
	Collection *struct{} `xml:"D:collection,omitempty"`
}

func davEntry(href, name string, isDir bool, size int64) davResponse {
	prop := davProp{
		DisplayName:  name,
		ResourceType: &davResourceType{},
	}
	if isDir {
		prop.ResourceType.Collection = &struct{}{}
	} else {
		prop.ContentLen = &size
	}
	return davResponse{
		Href:     href,
		Propstat: davPropstat{Prop: prop, Status: "HTTP/1.1 200 OK"},
	}
}

// servePropfind answers PROPFIND on a file or directory.
func servePropfind(w http.ResponseWriter, r *http.Request, rq request, path fspath.Path) {
	depth := r.Header.Get("Depth")
	if depth == "" {
		depth = "1"
	}
	if depth != "0" && depth != "1" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("%w: Depth must be 0 or 1", ErrBadRequest))
		return
	}
	size, entries, sizes, err := rq.propfind(path, depth == "1")
	if err != nil {
		writeMappedErr(w, err)
		return
	}
	ms := davMultistatus{XMLNS: "DAV:"}
	ms.Responses = append(ms.Responses, davEntry(FSPrefix+path.String(), path.Name(), path.IsDir(), size))
	for i, e := range entries {
		href := FSPrefix + path.String() + e.Name
		if e.IsDir {
			href += "/"
		}
		ms.Responses = append(ms.Responses, davEntry(href, e.Name, e.IsDir, sizes[i]))
	}

	w.Header().Set("Content-Type", `application/xml; charset="utf-8"`)
	w.WriteHeader(http.StatusMultiStatus)
	fmt.Fprint(w, xml.Header)
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	_ = enc.Encode(ms)
}

// serveOptions advertises WebDAV compliance.
func serveOptions(w http.ResponseWriter) {
	w.Header().Set("DAV", "1, 2")
	w.Header().Set("Allow", "OPTIONS, GET, HEAD, PUT, DELETE, MKCOL, MOVE, PROPFIND")
	w.Header().Set("MS-Author-Via", "DAV")
	w.WriteHeader(http.StatusOK)
}
