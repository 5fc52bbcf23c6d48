package aisql

import (
	"fmt"
	"strconv"
	"strings"

	"aidb/internal/catalog"
	"aidb/internal/storage"
)

// ExternalPipeline is the E14 baseline: the traditional workflow of
// exporting a table to CSV, training a model in an external script, and
// re-importing predictions as a new table. Every stage is functional (the
// model really trains on the parsed CSV), and the pipeline counts the
// bytes serialized and re-parsed — the data-movement cost that
// in-database training avoids entirely.
type ExternalPipeline struct {
	// BytesMoved counts CSV bytes written plus bytes re-parsed.
	BytesMoved int
}

// ExportCSV serializes a table to CSV.
func (p *ExternalPipeline) ExportCSV(t *catalog.Table) (string, error) {
	var sb strings.Builder
	for i, c := range t.Schema.Columns {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(c.Name)
	}
	sb.WriteByte('\n')
	err := t.ScanPages(t.PageIDs(), func(_ storage.RecordID, row catalog.Row) bool {
		for i, v := range row {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%v", v)
		}
		sb.WriteByte('\n')
		return true
	})
	if err != nil {
		return "", err
	}
	out := sb.String()
	p.BytesMoved += len(out)
	return out, nil
}

// TrainFromCSV parses the CSV (counting the re-parse cost) and trains a
// model exactly as the in-database path would.
func (p *ExternalPipeline) TrainFromCSV(name string, kind ModelKind, csv string, features []string, label string) (*Model, error) {
	p.BytesMoved += len(csv)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 2 {
		return nil, fmt.Errorf("aisql: CSV has no data rows")
	}
	header := strings.Split(lines[0], ",")
	colIdx := map[string]int{}
	for i, h := range header {
		colIdx[h] = i
	}
	// Rebuild a scratch table and reuse the shared training path.
	schema := catalog.Schema{}
	for _, h := range header {
		schema.Columns = append(schema.Columns, catalog.Column{Name: h, Type: catalog.Float64})
	}
	cat := catalog.NewMem()
	scratch, err := cat.CreateTable("scratch", schema)
	if err != nil {
		return nil, err
	}
	for _, line := range lines[1:] {
		parts := strings.Split(line, ",")
		row := make(catalog.Row, len(parts))
		for i, s := range parts {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("aisql: CSV parse: %w", err)
			}
			row[i] = f
		}
		if _, err := scratch.Insert(row); err != nil {
			return nil, err
		}
	}
	return TrainModel(name, kind, scratch, features, label, nil)
}

// ImportPredictions scores the model over the CSV and writes a
// predictions table into cat (the re-import step).
func (p *ExternalPipeline) ImportPredictions(cat *catalog.Catalog, tableName string, m *Model, csv string) error {
	p.BytesMoved += len(csv)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	header := strings.Split(lines[0], ",")
	colIdx := map[string]int{}
	for i, h := range header {
		colIdx[h] = i
	}
	out, err := cat.CreateTable(tableName, catalog.Schema{Columns: []catalog.Column{
		{Name: "prediction", Type: catalog.Float64},
	}})
	if err != nil {
		return err
	}
	for _, line := range lines[1:] {
		parts := strings.Split(line, ",")
		f := make([]float64, len(m.Features))
		for i, feat := range m.Features {
			idx, ok := colIdx[feat]
			if !ok {
				return fmt.Errorf("aisql: feature %q missing from CSV", feat)
			}
			v, err := strconv.ParseFloat(parts[idx], 64)
			if err != nil {
				return err
			}
			f[i] = v
		}
		pred, err := m.Predict(f)
		if err != nil {
			return err
		}
		if _, err := out.Insert(catalog.Row{pred}); err != nil {
			return err
		}
	}
	return nil
}
