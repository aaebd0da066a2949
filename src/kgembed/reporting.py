"""Comparison tables and small plots over run results and studies.

Rows are grouped and ordered by the configuration quadruple (interaction
model, loss, training approach, inverse-relations flag). Output formats are
CSV, a markdown table, and an optional self-contained SVG bar chart; none of
them need anything outside the standard library.
"""

import csv
import io
import json
import os

from .pipeline import _is, _type_name

RUN_REPORT_HEADER = [
    "model", "loss", "approach", "inverse", "dataset", "seed",
    "hits_at_10", "mrr", "mr", "amr", "best_epoch", "epochs_run",
    "train_seconds",
]

# the JSON type of each report-row field
_NUMBER = (int, float)
_ROW_TYPES = {"model": str, "loss": str, "approach": str, "inverse": bool,
              "dataset": str, "seed": int, "hits_at_10": _NUMBER, "mrr": _NUMBER,
              "mr": _NUMBER, "amr": _NUMBER, "best_epoch": int, "epochs_run": int,
              "train_seconds": _NUMBER}

HPO_SUMMARY_HEADER = [
    "model", "approach", "loss", "inverse", "embedding_dim", "optimizer",
    "learning_rate", "batch_size", "num_negatives", "margin",
    "adversarial_temperature", "label_smoothing", "sampler", "metric",
    "best_epoch", "trial_id",
]


def load_run_result(path):
    """One result.json document whose report row builds, each field of the
    JSON type of _ROW_TYPES; ValueError names what is wrong,
    FileNotFoundError keeps the path visible."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    missing = [k for k in ("config", "metrics", "training", "timing")
               if k not in doc]
    if missing:
        raise ValueError(f"missing required sections: {', '.join(missing)}")
    try:
        row = run_row(doc)
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed sections: {type(e).__name__}: {e}") from None
    for field, types in _ROW_TYPES.items():
        if not _is(row[field], types):
            raise ValueError(f"malformed sections: {field}: expected {_type_name(types)}")
    return doc


def _dataset_name(result):
    train = result["config"]["dataset"]["train"]
    return os.path.basename(os.path.dirname(os.path.abspath(train))) or train


def run_row(result):
    """Flatten one run result into a report row (filtered realistic, both sides)."""
    cfg = result["config"]
    m = result["metrics"]["filtered"]["both"]["realistic"]
    return {
        "model": cfg["model"]["kind"],
        "loss": cfg["training"]["loss"]["kind"],
        "approach": cfg["training"]["approach"],
        "inverse": cfg["inverse_relations"],
        "dataset": _dataset_name(result),
        "seed": cfg["seed"],
        "hits_at_10": m["hits_at_10"],
        "mrr": m["mrr"],
        "mr": m["mr"],
        "amr": m["amr"],
        "best_epoch": result["training"]["best_epoch"],
        "epochs_run": result["training"]["epochs_run"],
        "train_seconds": result["timing"]["train_seconds"],
    }


def summarize_runs(results):
    """(rows, notes) over a list of result documents, quadruple-ordered."""
    rows = sorted(
        (run_row(r) for r in results),
        key=lambda r: (r["model"], r["loss"], r["approach"], r["inverse"],
                       r["dataset"], r["seed"]),
    )
    notes = []
    datasets = sorted({r["dataset"] for r in rows})
    if len(datasets) > 1:
        notes.append("results span multiple datasets: " + ", ".join(datasets))
    return rows, notes


def best_per_model(records):
    """Best-scoring trial per interaction model, as HPO summary rows."""
    best = {}
    for rec in records:
        if rec.metric is None:
            continue
        kind = rec.config["model"]
        cur = best.get(kind)
        if cur is None or (rec.metric, -rec.trial_id) > (cur.metric, -cur.trial_id):
            best[kind] = rec
    rows = []
    for kind in sorted(best):
        rec = best[kind]
        cfg = rec.config
        rows.append({
            "model": kind,
            "approach": cfg["approach"],
            "loss": cfg["loss"],
            "inverse": cfg["inverse"],
            "embedding_dim": cfg["embedding_dim"],
            "optimizer": cfg["optimizer"],
            "learning_rate": cfg["learning_rate"],
            "batch_size": cfg["batch_size"],
            "num_negatives": cfg["num_negatives"],
            "margin": cfg["margin"],
            "adversarial_temperature": cfg["adversarial_temperature"],
            "label_smoothing": cfg["label_smoothing"],
            "sampler": cfg["sampler"],
            "metric": rec.metric,
            "best_epoch": rec.best_epoch,
            "trial_id": rec.trial_id,
        })
    return rows


# ---------------------------------------------------------------------------
# renderers
# ---------------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render_csv(rows, header):
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=header, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(row.get(k)) for k in header})
    return out.getvalue()


def render_markdown(rows, header, notes=()):
    lines = []
    for note in notes:
        lines.append(f"note: {note}")
    if notes:
        lines.append("")
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join(" --- " for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_fmt(row.get(k)) for k in header) + " |")
    return "\n".join(lines) + "\n"


def _xml_escape(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def render_svg_bars(labels, values, *, title="", width=720, bar_height=20,
                    gap=6, label_width=300, max_value=None):
    """A horizontal bar chart as a standalone SVG string."""
    if len(labels) != len(values) or not labels:
        raise ValueError("need one value per label and at least one bar")
    vmax = max_value if max_value is not None else max(values)
    vmax = max(float(vmax), 1e-12)
    top = 36 if title else 10
    height = top + len(labels) * (bar_height + gap) + 10
    span = width - label_width - 70
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="10" y="22" font-size="15" font-weight="bold">'
                     f'{_xml_escape(title)}</text>')
    for i, (label, value) in enumerate(zip(labels, values)):
        y = top + i * (bar_height + gap)
        bar = span * min(max(float(value), 0.0) / vmax, 1.0)
        parts.append(f'<text x="{label_width - 8}" y="{y + bar_height - 6}" '
                     f'text-anchor="end">{_xml_escape(label)}</text>')
        parts.append(f'<rect x="{label_width}" y="{y}" width="{bar:.1f}" '
                     f'height="{bar_height}" fill="#4878a8"/>')
        parts.append(f'<text x="{label_width + bar + 6:.1f}" '
                     f'y="{y + bar_height - 6}">{_fmt(float(value))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report(results, out_dir, *, formats=("csv", "markdown"), svg=False):
    """Render a run comparison into out_dir; returns {artifact: path}."""
    rows, notes = summarize_runs(results)
    os.makedirs(out_dir, exist_ok=True)
    written = {}
    if "csv" in formats:
        path = os.path.join(out_dir, "report.csv")
        with open(path, "w", encoding="utf-8") as f:
            f.write(render_csv(rows, RUN_REPORT_HEADER))
        written["csv"] = path
    if "markdown" in formats:
        path = os.path.join(out_dir, "report.md")
        with open(path, "w", encoding="utf-8") as f:
            f.write(render_markdown(rows, RUN_REPORT_HEADER, notes))
        written["markdown"] = path
    if svg:
        labels = [f'{r["model"]}/{r["loss"]}/{r["approach"]}'
                  f'{"/inv" if r["inverse"] else ""} ({r["dataset"]})'
                  for r in rows]
        values = [r["hits_at_10"] for r in rows]
        path = os.path.join(out_dir, "report.svg")
        with open(path, "w", encoding="utf-8") as f:
            f.write(render_svg_bars(labels, values, title="hits@10 (filtered, realistic)",
                                    max_value=1.0))
        written["svg"] = path
    return written, rows, notes
