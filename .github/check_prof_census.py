"""Check an hsis-prof-v1 census series: a header line, then sample records.

    python3 check_prof_census.py FILE MIN_SAMPLES [--census]

--census also requires some sample to carry a BDD census (a profiled run
long enough for a manager to answer the sampler's request).
"""
import json
import sys

path, min_samples = sys.argv[1], int(sys.argv[2])
with open(path) as f:
    lines = [json.loads(line) for line in f if line.strip()]
header, samples = lines[0], lines[1:]
assert header["schema"] == "hsis-prof-v1", header
assert header["kind"] == "header", header
assert all(s["kind"] == "sample" for s in samples)
assert len(samples) >= min_samples, f"only {len(samples)} samples"
if "--census" in sys.argv[3:]:
    assert any(s.get("census_seq") is not None for s in samples), \
        "no sample carries a census"
print(f"{path}: hsis-prof-v1 OK, {len(samples)} samples")
