package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"strings"
)

// reply is one framed answer of the line protocol: an "ERR <message>"
// line, an "OK" line, or an aligned text table ending in "(N rows)";
// each followed by a lone ".".
type reply struct {
	errMsg string
	ok     bool
	rows   [][]string // data rows, cells split on blanks (no generated value holds one)
	bytes  int        // bytes read, framing included
}

// readReply reads one reply. An answer that does not follow the format
// above is returned as an error; the caller counts it as a failure.
func readReply(br *bufio.Reader, rep *reply) error {
	*rep = reply{rows: rep.rows[:0]}
	for n := 0; ; n++ {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("read reply: %w", err)
		}
		rep.bytes += len(line)
		line = bytes.TrimRight(line, " \n")
		if len(line) == 1 && line[0] == '.' {
			break
		}
		switch {
		case n == 0 && bytes.HasPrefix(line, []byte("ERR ")):
			rep.errMsg = string(line[4:])
		case n == 0 && string(line) == "OK":
			rep.ok = true
		case rep.errMsg != "" || rep.ok:
			return fmt.Errorf("unparsable reply: %q after a one-line answer", line)
		case n < 2: // column names, then dashes
		default:
			rep.rows = append(rep.rows, strings.Fields(string(line)))
		}
	}
	if rep.errMsg != "" || rep.ok {
		return nil
	}
	// The last line is "(N rows)" and N must match what was framed.
	if len(rep.rows) == 0 {
		return fmt.Errorf("unparsable reply: no row count")
	}
	last := rep.rows[len(rep.rows)-1]
	rep.rows = rep.rows[:len(rep.rows)-1]
	if len(last) != 2 || last[1] != "rows)" || !strings.HasPrefix(last[0], "(") {
		return fmt.Errorf("unparsable reply: last line %q", strings.Join(last, " "))
	}
	if n, err := strconv.Atoi(last[0][1:]); err != nil || n != len(rep.rows) {
		return fmt.Errorf("unparsable reply: %q but %d rows framed", strings.Join(last, " "), len(rep.rows))
	}
	return nil
}

// failClass says why a statement did not count.
type failClass uint8

const (
	failShed failClass = iota
	failTimeout
	failOther
	failWrong // answered, but not what the oracle expects, or unparsable
	numFailClasses
)

var failNames = [numFailClasses]string{"shed", "timeout", "other", "wrong"}

// classifyErr sorts a server ERR message by its text.
func classifyErr(msg string) failClass {
	switch {
	case strings.Contains(msg, "admission shed"):
		return failShed
	case strings.Contains(msg, "deadline exceeded"), strings.Contains(msg, "context canceled"):
		return failTimeout
	default:
		return failOther
	}
}

// conn is one line-protocol connection.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	line []byte
	sent int64 // bytes written
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 256<<10)}, nil
}

func (c *conn) send(text string) error {
	c.line = append(append(c.line[:0], text...), '\n')
	c.sent += int64(len(c.line))
	_, err := c.c.Write(c.line)
	return err
}

// roundTrip sends one statement and reads its reply.
func (c *conn) roundTrip(text string, rep *reply) error {
	if err := c.send(text); err != nil {
		return err
	}
	return readReply(c.br, rep)
}

// mustOK runs a set-up statement that has to succeed.
func (c *conn) mustOK(text string) error {
	var rep reply
	if err := c.roundTrip(text, &rep); err != nil {
		return err
	}
	if rep.errMsg != "" {
		return fmt.Errorf("%s: server said %s", text, rep.errMsg)
	}
	return nil
}

func (c *conn) close() {
	c.send(`\quit`) // best effort: the server also closes on EOF
	c.c.Close()
}
