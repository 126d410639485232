"""The outputs pinned in ``tests/golden/outputs.json`` (see
``tests/golden_outputs.py``) are byte-identical on this tree."""

from . import golden_outputs


def test_outputs_match_the_golden_digests():
    stored = golden_outputs.load()
    got = golden_outputs.digests()
    changed = golden_outputs.changed_entries(got, stored["digests"])
    if changed:
        env, want_env = golden_outputs.environment(), stored["environment"]
        differences = [f"{k} {want_env.get(k)} -> {env.get(k)}" for k in sorted(env.keys() | want_env.keys())
                       if env.get(k) != want_env.get(k)]
        where = ("; the environment differs: " + ", ".join(differences)) if differences else (
            f"; same environment ({', '.join(f'{k} {v}' for k, v in sorted(env.items()))}), so the code changed them")
        raise AssertionError(f"{len(changed)} golden digests changed: {', '.join(changed)}{where}")
