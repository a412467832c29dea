"""Known-bad RL007 twin (pretend path: repro/serve/parallel.py)."""

from concurrent.futures import ThreadPoolExecutor


def _score_cached(items):
    global _CACHE  # BAD: global in a module-level submit target
    _CACHE = items
    return items


class BadShardedService:
    def __init__(self):
        self.counter_ = 0

    def _score_shard(self, items):
        self.counter_ += 1  # BAD: pool-submitted method mutates shared self
        global _SCRATCH  # BAD: global in a thread-submitted method
        _SCRATCH = items
        return items

    def run(self, shards):
        with ThreadPoolExecutor() as pool:
            futures = [pool.submit(self._score_shard, items) for items in shards]
            futures.append(pool.submit(_score_cached, shards))
            return [future.result() for future in futures]
