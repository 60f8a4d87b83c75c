#!/usr/bin/env bash
# End-to-end demo on a small synthetic dataset: simulate -> train -> track ->
# eval -> analyze. Uses reduced model/training sizes so it finishes in a few
# seconds. Outputs land in ./demo_out.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

OUT=demo_out
FAST=(
  --set scene.duration_s=6
  --set train.epochs=2
  --set model.sinkhorn_iters=30
  --set model.descriptor_dim=8
  --set model.head_hidden=16
  --set model.num_layers=2
  --set model.num_heads=2
  --set model.refine_widths=[16,8]
)

mkdir -p "$OUT"
python3 -m cuetrack.cli simulate --out "$OUT/data" --seed 3 --num-sequences 4 "${FAST[@]}"
python3 -m cuetrack.cli train --data "$OUT/data" --out "$OUT/model.ckpt" --seed 3 \
  --loss-csv "$OUT/loss.csv" "${FAST[@]}"
python3 -m cuetrack.cli track --ckpt "$OUT/model.ckpt" --data "$OUT/data" \
  --out "$OUT/results.csv" --seed 3 "${FAST[@]}"
python3 -m cuetrack.cli eval --pred "$OUT/results.csv" --gt "$OUT/data" \
  --out "$OUT/report.csv"
python3 -m cuetrack.cli analyze --gt "$OUT/data" --out "$OUT/analysis"

echo
echo "report:"
cat "$OUT/report.csv"
