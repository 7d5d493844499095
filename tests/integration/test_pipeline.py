"""Cross-module integration: ingest -> persist -> reload -> query -> analytics.

These tests chain the application layers the way a downstream user would:
workload generators feed the database layer, the indexes are persisted with
:mod:`repro.storage`, reloaded, queried through the declarative query layer
and the CLI, and the analytics answers are cross-checked against plain-Python
oracles.
"""

import json

import pytest

from repro.cli import main
from repro.db import AccessLogStore, ColumnStore, Query
from repro.storage import dumps, load, loads, save
from repro.workloads import UrlLogGenerator


class TestLogPipeline:
    def test_ingest_persist_reload_analyze(self, tmp_path):
        urls = UrlLogGenerator(domains=8, depth=2, branching=3, seed=55).generate(600)
        log = AccessLogStore()
        for tick, url in enumerate(urls):
            log.append(url, timestamp=tick)

        path = tmp_path / "log.wt"
        save(log, path)
        restored = load(path)

        # Windowed analytics agree with a plain recount of the raw list.
        window = (150, 450)
        low, high = restored.window(*window)
        assert (low, high) == (150, 450)
        domain = urls[200].split("/")[2]
        prefix = f"http://{domain}"
        expected = sum(1 for url in urls[150:450] if url.startswith(prefix))
        assert restored.count_prefix(prefix, *window) == expected

        top = restored.top_urls(3, *window)
        recount = {}
        for url in urls[150:450]:
            recount[url] = recount.get(url, 0) + 1
        assert top[0][1] == max(recount.values())
        assert recount[top[0][0]] == top[0][1]

    def test_cli_round_trip_agrees_with_library(self, tmp_path, capsys):
        urls = UrlLogGenerator(domains=5, depth=2, branching=2, seed=77).generate(300)
        log_file = tmp_path / "urls.log"
        log_file.write_text("\n".join(urls) + "\n", encoding="utf-8")
        index_file = tmp_path / "urls.wt"

        assert main(["build", str(log_file), "-o", str(index_file)]) == 0
        capsys.readouterr()

        assert main(["rank", str(index_file), "http://", "--prefix", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 300

        index = load(index_file)
        assert index.to_list() == urls
        assert main(["top", str(index_file), "-k", "1", "--json"]) == 0
        top_payload = json.loads(capsys.readouterr().out)
        assert top_payload["results"][0]["count"] == index.top_k_in_range(0, 300, 1)[0][1]


class TestColumnStorePipeline:
    def test_query_layer_after_reload(self, tmp_path):
        urls = UrlLogGenerator(domains=6, depth=2, branching=2, seed=99).generate(400)
        store = ColumnStore(["url", "status", "method"])
        for index, url in enumerate(urls):
            store.append_row(
                {
                    "url": url,
                    "status": "500" if index % 17 == 0 else "200",
                    "method": "POST" if index % 5 == 0 else "GET",
                }
            )
        restored = loads(dumps(store))

        query = (
            Query(restored)
            .where_eq("status", "500")
            .where_eq("method", "POST")
            .select("url", "status")
        )
        expected = [
            {"url": urls[index], "status": "500"}
            for index in range(400)
            if index % 17 == 0 and index % 5 == 0
        ]
        assert query.rows() == expected

        grouped = dict(Query(restored).in_rows(0, 100).group_by_count("method"))
        assert grouped["POST"] == len([i for i in range(100) if i % 5 == 0])
        assert grouped["GET"] == 100 - grouped["POST"]
