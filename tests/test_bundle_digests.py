import dataclasses
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bundle_digests", Path(__file__).resolve().parents[1] / "tools" / "bundle_digests.py")
bundle_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bundle_digests)


def test_each_workload_is_built_from_the_stream_it_reports():
    for name in bundle_digests.RUNS:
        config, tasks, stream = bundle_digests.build(name, 1)
        assert tasks is stream.tasks and config.seed == 1
    assert bundle_digests.workloads.synthetic_stream is bundle_digests.synthetic_stream


def test_the_stream_digest_covers_tokens_vocabulary_and_sensitive_ids():
    _, _, stream = bundle_digests.build("recipe-pecl", 2)
    digest = bundle_digests.stream_digest(stream)
    assert digest == bundle_digests.stream_digest(bundle_digests.build("recipe-seqft", 2)[2])
    assert digest != bundle_digests.stream_digest(bundle_digests.build("recipe-pecl", 3)[2])
    fewer_secrets = dataclasses.replace(stream, sensitive_ids=stream.sensitive_ids - {
        min(stream.sensitive_ids)})
    assert bundle_digests.stream_digest(fewer_secrets) != digest
    other_vocab = dataclasses.replace(stream, vocab=bundle_digests.build("default-pecl", 2)[2].vocab)
    assert bundle_digests.stream_digest(other_vocab) != digest
    stream.tasks[0].eval[0].tokens[0] += 1
    assert bundle_digests.stream_digest(stream) != digest
